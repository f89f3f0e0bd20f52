#include "io/binary_instance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/lp_packing.h"
#include "core/utility_kernel.h"
#include "gen/synthetic.h"
#include "io/instance_io.h"
#include "tests/core/test_instances.h"
#include "util/crc32.h"

namespace igepa {
namespace io {
namespace {

using core::Instance;
using core::MakeTinyInstance;

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

class BinaryInstanceTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  Instance MakeSynthetic(uint64_t seed, int32_t events = 40,
                         int32_t users = 120) {
    Rng rng(seed);
    gen::SyntheticConfig config;
    config.num_events = events;
    config.num_users = users;
    auto instance = gen::GenerateSynthetic(config, &rng);
    IGEPA_CHECK(instance.ok()) << instance.status();
    return std::move(*instance);
  }
};

TEST_F(BinaryInstanceTest, ViewMatchesInstanceOnEveryAccessor) {
  const Instance original = MakeTinyInstance();
  const std::string path = TempPath("tiny.bin");
  ASSERT_TRUE(WriteInstanceBinary(original, path).ok());

  auto view = InstanceView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->num_events(), original.num_events());
  EXPECT_EQ(view->num_users(), original.num_users());
  EXPECT_EQ(view->beta(), original.beta());
  EXPECT_EQ(view->kernel_id(), original.kernel().id());
  EXPECT_EQ(view->num_bids(), original.TotalBids());
  for (int32_t v = 0; v < original.num_events(); ++v) {
    EXPECT_EQ(view->event_capacity(v), original.event_capacity(v));
    for (int32_t b = 0; b < original.num_events(); ++b) {
      EXPECT_EQ(view->Conflicts(v, b), original.Conflicts(v, b)) << v << b;
    }
  }
  for (int32_t u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(view->user_capacity(u), original.user_capacity(u));
    const auto bids = view->bids(u);
    ASSERT_EQ(bids.size(), original.bids(u).size());
    for (size_t i = 0; i < bids.size(); ++i) {
      EXPECT_EQ(bids[i], original.bids(u)[i]);
    }
    EXPECT_EQ(view->Degree(u), original.Degree(u));
    for (core::EventId v : original.bids(u)) {
      EXPECT_TRUE(view->HasBid(u, v));
      EXPECT_EQ(view->Interest(v, u), original.Interest(v, u));
      EXPECT_EQ(view->Weight(v, u), original.PairWeight(v, u));
    }
  }
  // Non-bid pairs read as zero interest (the CSV sparse semantics): user 1
  // bids {0, 2}, so event 1 is off its list.
  EXPECT_FALSE(view->HasBid(1, 1));
  EXPECT_EQ(view->Interest(1, 1), 0.0);
}

TEST_F(BinaryInstanceTest, CsvBinaryCsvIsByteIdentical) {
  // The satellite pin: converting a repo-written CSV to v3 and back must
  // reproduce the input byte for byte (v1 file, default kernel).
  const Instance instance = MakeSynthetic(7, 60, 200);
  const std::string csv1 = TempPath("rt1.csv");
  const std::string bin = TempPath("rt.bin");
  const std::string csv2 = TempPath("rt2.csv");
  ASSERT_TRUE(WriteInstanceCsv(instance, csv1).ok());
  ASSERT_TRUE(ConvertCsvToBinary(csv1, bin).ok());
  ASSERT_TRUE(ConvertBinaryToCsv(bin, csv2).ok());
  const std::string before = ReadFileBytes(csv1);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before, ReadFileBytes(csv2));
}

TEST_F(BinaryInstanceTest, CsvRoundTripKeepsNonDefaultKernel) {
  // v2 corpus leg of the same pin: the kernel record survives the binary hop
  // and the bytes still match.
  Instance instance = MakeSynthetic(13);
  auto kernel = core::MakeUtilityKernel("interest_only");
  ASSERT_TRUE(kernel.ok());
  instance.set_kernel(std::move(*kernel));
  const std::string csv1 = TempPath("k1.csv");
  const std::string bin = TempPath("k.bin");
  const std::string csv2 = TempPath("k2.csv");
  ASSERT_TRUE(WriteInstanceCsv(instance, csv1).ok());
  ASSERT_TRUE(ConvertCsvToBinary(csv1, bin).ok());
  auto view = InstanceView::Open(bin);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->kernel_id(), "interest_only");
  ASSERT_TRUE(ConvertBinaryToCsv(bin, csv2).ok());
  EXPECT_EQ(ReadFileBytes(csv1), ReadFileBytes(csv2));
}

TEST_F(BinaryInstanceTest, BinaryWriteIsByteDeterministic) {
  const Instance instance = MakeSynthetic(21);
  const std::string a = TempPath("det_a.bin");
  const std::string b = TempPath("det_b.bin");
  ASSERT_TRUE(WriteInstanceBinary(instance, a).ok());
  ASSERT_TRUE(WriteInstanceBinary(instance, b).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
}

TEST_F(BinaryInstanceTest, TruncatedFileIsRefused) {
  const std::string path = TempPath("trunc_src.bin");
  ASSERT_TRUE(WriteInstanceBinary(MakeSynthetic(3), path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 128u);
  // Chop at several depths: inside the header, inside a section, and just
  // shy of the trailer. Every prefix must be refused with IOError.
  for (size_t keep : {size_t{16}, size_t{63}, bytes.size() / 2,
                      bytes.size() - 1}) {
    const std::string path_t = TempPath("trunc.bin");
    WriteFileBytes(path_t, bytes.substr(0, keep));
    auto view = InstanceView::Open(path_t);
    ASSERT_FALSE(view.ok()) << "truncated to " << keep << " bytes";
    EXPECT_EQ(view.status().code(), StatusCode::kIOError) << keep;
  }
}

TEST_F(BinaryInstanceTest, TamperedPayloadIsRefusedByCrc) {
  const std::string src = TempPath("tamper_src.bin");
  ASSERT_TRUE(WriteInstanceBinary(MakeSynthetic(5), src).ok());
  std::string bytes = ReadFileBytes(src);
  // Flip one bit mid-payload; size and header stay plausible, so only the
  // CRC trailer can catch it.
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string path = TempPath("tamper.bin");
  WriteFileBytes(path, bytes);
  auto view = InstanceView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIOError);
  EXPECT_NE(view.status().message().find("CRC"), std::string::npos)
      << view.status();
}

TEST_F(BinaryInstanceTest, ForeignAndMissingFilesAreRefused) {
  const std::string path = TempPath("not_binary.bin");
  WriteFileBytes(path, "igepa,1,2,2,0.5\nevent,0,1\n");
  EXPECT_FALSE(SniffBinaryInstance(path));
  auto view = InstanceView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIOError);

  auto missing = InstanceView::Open("/nonexistent/dir/instance.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(SniffBinaryInstance("/nonexistent/dir/instance.bin"));
}

TEST_F(BinaryInstanceTest, VersionThreeFileIsRefusedByVersion) {
  // A complete igepa-bin,3 file as the previous writer laid it out (empty
  // instance): 64-byte header, kernel id padded to 8, one bid offset, then
  // CRC-32 + "IGB3". It still sniffs as binary and is refused by version.
  std::string bytes(104, '\0');
  auto* b = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(b, "igepabin", 8);
  PutU32(b + 8, 3);
  PutU32(b + 12, 20);                   // kernel id length
  PutU64(b + 40, 0x3fe0000000000000);  // beta 0.5
  std::memcpy(b + 64, "interaction_interest", 20);
  PutU32(b + 96, Crc32(b, 96));
  PutU32(b + 100, 0x33424749);
  const std::string path = TempPath("v3.bin");
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(SniffBinaryInstance(path));
  auto view = InstanceView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIOError);
  EXPECT_NE(view.status().message().find("unsupported version 3"),
            std::string::npos)
      << view.status();
}

TEST_F(BinaryInstanceTest, SniffRecognizesTheMagic) {
  const std::string bin = TempPath("sniff.bin");
  const std::string csv = TempPath("sniff.csv");
  const Instance instance = MakeTinyInstance();
  ASSERT_TRUE(WriteInstanceBinary(instance, bin).ok());
  ASSERT_TRUE(WriteInstanceCsv(instance, csv).ok());
  EXPECT_TRUE(SniffBinaryInstance(bin));
  EXPECT_FALSE(SniffBinaryInstance(csv));
}

TEST_F(BinaryInstanceTest, MaterializedViewSolvesBitIdenticallyToCsvInstance) {
  // The acceptance pin: the mmap-backed instance must be indistinguishable
  // from the CSV-loaded one under the full LP-packing pipeline — same seed,
  // bit-identical arrangement and utility.
  const Instance original = MakeSynthetic(17, 30, 300);
  const std::string csv = TempPath("solve.csv");
  const std::string bin = TempPath("solve.bin");
  ASSERT_TRUE(WriteInstanceCsv(original, csv).ok());
  ASSERT_TRUE(WriteInstanceBinary(original, bin).ok());

  auto from_csv = ReadInstanceCsv(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status();
  auto view = InstanceView::Open(bin);
  ASSERT_TRUE(view.ok()) << view.status();
  auto from_bin =
      MaterializeInstance(std::make_shared<const InstanceView>(std::move(*view)));
  ASSERT_TRUE(from_bin.ok()) << from_bin.status();

  Rng rng_csv(99);
  Rng rng_bin(99);
  auto arr_csv = core::LpPacking(*from_csv, &rng_csv);
  auto arr_bin = core::LpPacking(*from_bin, &rng_bin);
  ASSERT_TRUE(arr_csv.ok()) << arr_csv.status();
  ASSERT_TRUE(arr_bin.ok()) << arr_bin.status();
  EXPECT_EQ(arr_csv->pairs(), arr_bin->pairs());
  EXPECT_EQ(arr_csv->Utility(*from_csv), arr_bin->Utility(*from_bin));
}

TEST_F(BinaryInstanceTest, MaterializeInstallsTheStoredKernel) {
  Instance instance = MakeTinyInstance();
  auto kernel = core::MakeUtilityKernel("interest_only");
  ASSERT_TRUE(kernel.ok());
  instance.set_kernel(std::move(*kernel));
  const std::string path = TempPath("kernel.bin");
  ASSERT_TRUE(WriteInstanceBinary(instance, path).ok());
  auto view = InstanceView::Open(path);
  ASSERT_TRUE(view.ok());
  auto loaded =
      MaterializeInstance(std::make_shared<const InstanceView>(std::move(*view)));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->kernel().id(), "interest_only");
  for (core::UserId u = 0; u < loaded->num_users(); ++u) {
    for (core::EventId v : loaded->bids(u)) {
      EXPECT_EQ(loaded->PairWeight(v, u), instance.PairWeight(v, u));
    }
  }
}

TEST_F(BinaryInstanceTest, WriterEnforcesTheDeclaredCounts) {
  // The header is binding: under-delivering records must fail Finish, and
  // out-of-order or out-of-range records fail at the Add call.
  BinaryInstanceHeader header;
  header.num_events = 2;
  header.num_users = 1;
  header.num_bids = 1;
  header.num_conflicts = 0;
  header.beta = 0.5;
  header.kernel_id = "interaction_interest";
  {
    auto writer = BinaryInstanceWriter::Create(TempPath("short.bin"), header);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->AddEvent(1).ok());
    // One event short, no user: Finish must refuse.
    EXPECT_FALSE(writer->Finish().ok());
  }
  {
    auto writer = BinaryInstanceWriter::Create(TempPath("badbid.bin"), header);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AddEvent(1).ok());
    ASSERT_TRUE(writer->AddEvent(1).ok());
    const core::EventId out_of_range[] = {5};
    const double interest[] = {0.5};
    EXPECT_FALSE(writer->AddUser(1, out_of_range, interest, 0.0).ok());
  }
}

}  // namespace
}  // namespace io
}  // namespace igepa
