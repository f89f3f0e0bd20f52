// The shared section-file framing (FORMATS.md §10): writer/reader round
// trip, concurrent reservations, writer misuse, the reserved-zero rules, and
// a seeded mutation sweep over one file of each format built on it
// (igepa-bin, igepa-cat, the serve snapshot) — every mutant must open to a
// valid object or fail with IOError, never crash.

#include "io/section_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "gen/synthetic.h"
#include "io/binary_instance.h"
#include "io/catalog_spill.h"
#include "serve/checkpoint.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"

namespace igepa {
namespace io {
namespace {

constexpr SectionFormat kTestFormat{"igepatst", 1, "igepa-test,1"};
constexpr uint64_t kRecordBytes = 56;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes every section CRC and the trailer CRC of a section-file image
/// whose header and directory still parse, so a deliberate edit survives
/// the checksums and reaches the format-level checks. False when the image
/// is too broken to locate its sections.
bool Reseal(std::string* bytes) {
  auto* b = reinterpret_cast<unsigned char*>(bytes->data());
  const uint64_t size = bytes->size();
  if (size < kSectionAlign + 8) return false;
  const uint64_t count = GetU32(b + 12);
  const uint64_t dir = GetU64(b + 16);
  if (dir > size || size - dir != count * kRecordBytes + 8) return false;
  for (uint64_t i = 0; i < count; ++i) {
    unsigned char* rec = b + dir + i * kRecordBytes;
    const uint64_t off = GetU64(rec);
    const uint64_t len = GetU64(rec + 8);
    if (off > dir || len > dir - off || AlignToSection(off + len) > dir) {
      return false;
    }
    PutU32(rec + 16, Crc32(b + off, AlignToSection(off + len) - off));
  }
  PutU32(b + dir + count * kRecordBytes,
         Crc32Update(Crc32(b, kSectionAlign), b + dir, count * kRecordBytes));
  return true;
}

core::Instance MakeSynthetic(uint64_t seed, int32_t events, int32_t users) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  auto instance = gen::GenerateSynthetic(config, &rng);
  IGEPA_CHECK(instance.ok()) << instance.status();
  return std::move(*instance);
}

TEST(SectionFileTest, RoundTripsSectionsAndCounts) {
  const std::string path = TempPath("roundtrip.sf");
  std::string mixed(300000, 'c');
  for (size_t i = 0; i < mixed.size(); i += 7) mixed[i] = static_cast<char>(i);
  const std::vector<std::string> payloads = {"", "x", std::string(4096, 'a'),
                                             std::string(5000, 'b'), mixed};
  {
    auto writer = SectionFileWriter::Create(path, kTestFormat);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t i = 0; i < payloads.size(); ++i) {
      auto sink = writer->Reserve(payloads[i].size(), {i, 2 * i, 3, 4});
      ASSERT_TRUE(sink.ok()) << sink.status();
      EXPECT_EQ(sink->index(), static_cast<int32_t>(i));
      // Small, large, small: buffered bytes must land before a large append
      // that bypasses the buffer.
      const std::string& p = payloads[i];
      const size_t a = std::min<size_t>(p.size(), 100);
      const size_t b = std::min<size_t>(p.size() - a, 200000);
      sink->Write(p.data(), a);
      sink->Write(p.data() + a, b);
      sink->Write(p.data() + a + b, p.size() - a - b);
      ASSERT_TRUE(sink->Finish().ok());
    }
    ASSERT_TRUE(writer->Seal().ok());
    ASSERT_TRUE(writer->Close(/*sync=*/true).ok());
  }
  auto file = SectionFile::Open(path, kTestFormat);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_EQ(file->records().size(), payloads.size());
  for (int32_t i = 0; i < static_cast<int32_t>(payloads.size()); ++i) {
    const SectionRecord& r = file->record(i);
    EXPECT_EQ(r.offset % kSectionAlign, 0u);
    EXPECT_EQ(r.counts[0], static_cast<uint64_t>(i));
    EXPECT_EQ(r.counts[1], 2u * static_cast<uint64_t>(i));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(file->data(i)),
                          r.bytes),
              payloads[static_cast<size_t>(i)]);
  }
  // Another format's reader refuses it by magic.
  const SectionFormat other{"igepaoth", 1, "igepa-other,1"};
  auto foreign = SectionFile::Open(path, other);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kIOError);
  EXPECT_NE(foreign.status().message().find("magic"), std::string::npos);
}

TEST(SectionFileTest, ConcurrentReservationsLandDisjoint) {
  // The CatalogSpill::Append pattern: threads reserve, stream and finish
  // their own sections at once; the sealed file must hold every payload.
  const std::string path = TempPath("concurrent.sf");
  auto writer = SectionFileWriter::Create(path, kTestFormat);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<int32_t>> index_of(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const std::string payload(1000 + 700 * k, static_cast<char>('a' + t));
        auto sink = writer->Reserve(payload.size(),
                                    {static_cast<uint64_t>(t), 0, 0, 0});
        IGEPA_CHECK(sink.ok()) << sink.status();
        for (size_t off = 0; off < payload.size(); off += 333) {
          sink->Write(payload.data() + off,
                      std::min<size_t>(333, payload.size() - off));
        }
        IGEPA_CHECK(sink->Finish().ok());
        index_of[static_cast<size_t>(t)].push_back(sink->index());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(writer->Seal().ok());

  auto file = SectionFile::Open(path, kTestFormat);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_EQ(file->records().size(), size_t{kThreads * kPerThread});
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) {
      const int32_t i =
          index_of[static_cast<size_t>(t)][static_cast<size_t>(k)];
      EXPECT_EQ(file->record(i).counts[0], static_cast<uint64_t>(t));
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(file->data(i)),
                            file->record(i).bytes),
                std::string(1000 + 700 * k, static_cast<char>('a' + t)));
    }
  }
}

TEST(SectionFileTest, WriterMisuseIsRefused) {
  auto writer = SectionFileWriter::Create(TempPath("misuse.sf"), kTestFormat);
  ASSERT_TRUE(writer.ok());
  auto over = writer->Reserve(4);
  ASSERT_TRUE(over.ok());
  over->Write("12345", 5);  // one byte past the reservation
  EXPECT_EQ(over->Finish().code(), StatusCode::kFailedPrecondition);
  auto short_sink = writer->Reserve(8);
  ASSERT_TRUE(short_sink.ok());
  short_sink->Write("1234", 4);
  EXPECT_EQ(short_sink->Finish().code(), StatusCode::kFailedPrecondition);
  // Unfinished sections block the seal; nothing is reservable afterwards.
  EXPECT_EQ(writer->Seal().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Reserve(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Seal().code(), StatusCode::kFailedPrecondition);

  auto missing =
      SectionFileWriter::Create("/nonexistent/dir/x.sf", kTestFormat);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

/// One repo-written file of each format on the framing, each paired with an
/// open check that returns the status a reader reports for a path.
struct SeedFile {
  std::string name;
  std::string bytes;
  std::function<Status(const std::string& path)> open;
};

SeedFile BinarySeed() {
  const std::string path = TempPath("seed.bin");
  IGEPA_CHECK(WriteInstanceBinary(MakeSynthetic(3, 12, 30), path).ok());
  return {"igepa-bin", ReadFileBytes(path), [](const std::string& p) {
            auto view = InstanceView::Open(p);
            if (!view.ok()) return view.status();
            auto instance = MaterializeInstance(
                std::make_shared<const InstanceView>(std::move(*view)));
            return instance.status();
          }};
}

SeedFile CatalogSeed() {
  const std::string path = TempPath("seed.spill");
  std::vector<core::Instance> instances;
  instances.push_back(MakeSynthetic(4, 8, 20));
  instances.push_back(MakeSynthetic(5, 8, 25));
  auto spill = CatalogSpill::Create(path);
  IGEPA_CHECK(spill.ok());
  for (const core::Instance& instance : instances) {
    const auto catalog = core::AdmissibleCatalog::Build(instance);
    IGEPA_CHECK(spill->Append(catalog.Lanes()).ok());
  }
  IGEPA_CHECK(spill->Seal().ok());
  return {"igepa-cat", ReadFileBytes(path), [](const std::string& p) {
            auto opened = CatalogSpill::Open(p);
            if (!opened.ok()) return opened.status();
            for (int32_t i = 0; i < opened->num_catalogs(); ++i) {
              auto view = opened->Map(i);
              if (!view.ok()) return view.status();
            }
            return Status::OK();
          }};
}

SeedFile SnapshotSeed() {
  const std::string dir = TempPath("seed_snapshot");
  IGEPA_CHECK(serve::Checkpointer::EnsureDirectory(dir).ok());
  serve::EngineSnapshot snap;
  snap.next_epoch = 3;
  snap.next_version = 4;
  snap.rng_state = {1, 2, 3, 4};
  snap.mu = {0.5, 0.25};
  snap.choice = {1, -1, 0};
  snap.choice_value = {0.1, 0.2, 0.3};
  snap.stale = {0, 1, 0};
  snap.sampled_col = {2, -1};
  snap.demand = {1, 0};
  snap.cutoff = {0, 1};
  snap.x = {1.0, 0.0, 0.5};
  snap.duals = {0.7, 0.1};
  snap.instance.emplace(MakeSynthetic(6, 8, 20));
  IGEPA_CHECK(serve::Checkpointer::Write(dir, snap).ok());
  return {"snapshot",
          ReadFileBytes(serve::Checkpointer::SnapshotPath(dir)),
          [](const std::string& p) {
            // Load reads <dir>/snapshot.igs; the mutant lives there.
            return serve::Checkpointer::Load(p).status();
          }};
}

/// Truncations, byte flips, spliced and duplicated ranges; half of the
/// mutants get their CRCs recomputed so the structural checks behind the
/// checksums are exercised too. Most files are page padding, so flips and
/// splices land inside a random section's payload three times in four.
std::string Mutate(const std::string& seed, std::mt19937_64* rng) {
  std::string bytes = seed;
  const auto pick = [rng](uint64_t n) {
    return n == 0 ? uint64_t{0}
                  : std::uniform_int_distribution<uint64_t>(0, n - 1)(*rng);
  };
  const auto* b = reinterpret_cast<const unsigned char*>(seed.data());
  const uint64_t dir = GetU64(b + 16);
  std::vector<std::pair<uint64_t, uint64_t>> payloads;  // (offset, bytes)
  for (uint64_t i = 0; i < GetU32(b + 12); ++i) {
    const unsigned char* rec = b + dir + i * kRecordBytes;
    if (GetU64(rec + 8) > 0) {
      payloads.emplace_back(GetU64(rec), GetU64(rec + 8));
    }
  }
  const auto position = [&](uint64_t len) {  // start of a len-byte range
    if (pick(4) == 0) return pick(seed.size() - len);
    const auto [off, n] = payloads[pick(payloads.size())];
    return std::min(off + pick(n), seed.size() - len);
  };
  switch (pick(6)) {
    case 0:  // truncate
      bytes.resize(pick(bytes.size()));
      break;
    case 1: {  // splice: overwrite a range with a copy of another
      const uint64_t len = 1 + pick(64);
      const uint64_t to = position(len);
      const uint64_t from = position(len);
      bytes.replace(to, len, seed.substr(from, len));
      break;
    }
    case 2: {  // duplicate a range in place
      const uint64_t len = 1 + pick(64);
      const uint64_t from = position(len);
      bytes.insert(from, seed.substr(from, len));
      break;
    }
    default: {  // flip 1..4 bytes
      const uint64_t flips = 1 + pick(4);
      for (uint64_t k = 0; k < flips; ++k) {
        bytes[position(1)] ^= static_cast<char>(1 + pick(255));
      }
      break;
    }
  }
  if (pick(2) == 0) Reseal(&bytes);
  return bytes;
}

TEST(SectionFileTest, SeededMutantsOpenOrFailWithIOError) {
  constexpr int kMutantsPerFormat = 200;
  const std::string snapshot_dir = TempPath("mutant_snapshot");
  ASSERT_TRUE(serve::Checkpointer::EnsureDirectory(snapshot_dir).ok());
  for (const SeedFile& seed : {BinarySeed(), CatalogSeed(), SnapshotSeed()}) {
    const bool is_snapshot = seed.name == "snapshot";
    const std::string path =
        is_snapshot ? serve::Checkpointer::SnapshotPath(snapshot_dir)
                    : TempPath("mutant." + seed.name);
    const std::string open_arg = is_snapshot ? snapshot_dir : path;
    // The unmutated seed opens, and so does a resealed copy: the mutants
    // below are judged against a reader that accepts the original.
    WriteFileBytes(path, seed.bytes);
    ASSERT_TRUE(seed.open(open_arg).ok()) << seed.name;
    std::string resealed = seed.bytes;
    ASSERT_TRUE(Reseal(&resealed));
    EXPECT_EQ(resealed, seed.bytes) << seed.name;

    std::mt19937_64 rng(20261019);
    int refused = 0;
    for (int m = 0; m < kMutantsPerFormat; ++m) {
      const std::string mutant = Mutate(seed.bytes, &rng);
      WriteFileBytes(path, mutant);
      const Status s = seed.open(open_arg);
      if (!s.ok()) {
        ++refused;
        EXPECT_EQ(s.code(), StatusCode::kIOError)
            << seed.name << " mutant " << m << ": " << s;
      }
    }
    // Almost every mutation breaks something; the sweep must not be a no-op.
    EXPECT_GT(refused, kMutantsPerFormat / 2) << seed.name;
  }
}

TEST(SectionFileTest, NonzeroReservedBytesAreRefused) {
  // FORMATS.md §10: the header's reserved bytes, the rest of the header
  // page, each directory record's reserved word and each section's padding
  // must be zero. Each case edits one such byte and recomputes every CRC, so
  // only the reserved-zero rule can refuse it.
  const SeedFile seeds[] = {BinarySeed(), CatalogSeed()};
  for (const SeedFile& seed : seeds) {
    const std::string path = TempPath("reserved." + seed.name);
    const auto* b = reinterpret_cast<const unsigned char*>(seed.bytes.data());
    const uint64_t dir = GetU64(b + 16);
    const uint64_t first_payload_end = GetU64(b + dir) + GetU64(b + dir + 8);
    ASSERT_NE(first_payload_end % kSectionAlign, 0u) << "no padding to edit";
    for (const uint64_t pos : {uint64_t{24}, uint64_t{63}, uint64_t{1000},
                               dir + 20, first_payload_end}) {
      std::string bytes = seed.bytes;
      bytes[pos] = 1;
      ASSERT_TRUE(Reseal(&bytes));
      WriteFileBytes(path, bytes);
      const Status s = seed.open(path);
      ASSERT_FALSE(s.ok()) << seed.name << " byte " << pos;
      EXPECT_EQ(s.code(), StatusCode::kIOError);
      EXPECT_TRUE(s.message().find("reserved") != std::string::npos ||
                  s.message().find("padding") != std::string::npos)
          << s;
    }
  }
}

}  // namespace
}  // namespace io
}  // namespace igepa
