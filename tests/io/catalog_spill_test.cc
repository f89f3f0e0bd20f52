#include "io/catalog_spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/instance.h"
#include "gen/synthetic.h"
#include "io/section_file.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"

namespace igepa {
namespace io {
namespace {

using core::AdmissibleCatalog;
using core::CatalogLanes;
using core::Instance;

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

void ExpectLanesEqual(const CatalogLanes& got, const CatalogLanes& want) {
  ASSERT_EQ(got.num_users, want.num_users);
  ASSERT_EQ(got.num_events, want.num_events);
  ASSERT_EQ(got.num_columns, want.num_columns);
  ASSERT_EQ(got.num_pairs, want.num_pairs);
  for (int32_t u = 0; u <= want.num_users; ++u) {
    EXPECT_EQ(got.user_begin[u], want.user_begin[u]) << "user_begin[" << u;
  }
  for (int32_t j = 0; j <= want.num_columns; ++j) {
    EXPECT_EQ(got.col_begin[j], want.col_begin[j]) << "col_begin[" << j;
  }
  for (int32_t j = 0; j < want.num_columns; ++j) {
    EXPECT_EQ(got.weight[j], want.weight[j]) << "weight[" << j;
    EXPECT_EQ(got.col_user[j], want.col_user[j]) << "col_user[" << j;
  }
  for (int64_t p = 0; p < want.num_pairs; ++p) {
    EXPECT_EQ(got.pool[p], want.pool[p]) << "pool[" << p;
    EXPECT_EQ(got.event_cols[p], want.event_cols[p]) << "event_cols[" << p;
  }
  for (int32_t v = 0; v <= want.num_events; ++v) {
    EXPECT_EQ(got.event_begin[v], want.event_begin[v]) << "event_begin[" << v;
  }
}

class CatalogSpillTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  Instance MakeSynthetic(uint64_t seed, int32_t events = 30,
                         int32_t users = 90) {
    Rng rng(seed);
    gen::SyntheticConfig config;
    config.num_events = events;
    config.num_users = users;
    auto instance = gen::GenerateSynthetic(config, &rng);
    IGEPA_CHECK(instance.ok()) << instance.status();
    return std::move(*instance);
  }

  /// Writes a sealed spill with `n` synthetic catalogs and keeps the built
  /// catalogs alive so their lanes can be compared against the mappings.
  std::string WriteSpill(const std::string& name, int32_t n,
                         std::vector<Instance>* instances,
                         std::vector<AdmissibleCatalog>* catalogs) {
    const std::string path = TempPath(name);
    auto spill = CatalogSpill::Create(path);
    IGEPA_CHECK(spill.ok()) << spill.status();
    for (int32_t i = 0; i < n; ++i) {
      instances->push_back(MakeSynthetic(100 + static_cast<uint64_t>(i), 20,
                                         40 + 10 * i));
      catalogs->push_back(AdmissibleCatalog::Build(instances->back()));
      auto index = spill->Append(catalogs->back().Lanes());
      IGEPA_CHECK(index.ok()) << index.status();
      IGEPA_CHECK(*index == i);
    }
    IGEPA_CHECK(spill->Seal().ok());
    return path;
  }
};

TEST_F(CatalogSpillTest, MappedLanesRoundTripEveryArray) {
  std::vector<Instance> instances;
  std::vector<AdmissibleCatalog> catalogs;
  const std::string path =
      WriteSpill("roundtrip.spill", 3, &instances, &catalogs);

  // Through the writer's own fd (the solver path)…
  auto writer = CatalogSpill::Create(TempPath("roundtrip2.spill"));
  ASSERT_TRUE(writer.ok());
  for (const AdmissibleCatalog& catalog : catalogs) {
    ASSERT_TRUE(writer->Append(catalog.Lanes()).ok());
  }
  ASSERT_TRUE(writer->Seal().ok());
  for (int32_t i = 0; i < 3; ++i) {
    auto view = writer->Map(i);
    ASSERT_TRUE(view.ok()) << view.status();
    ExpectLanesEqual(view->lanes(), catalogs[static_cast<size_t>(i)].Lanes());
  }

  // …and through Open on the sealed file (eager full validation).
  auto opened = CatalogSpill::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->num_catalogs(), 3);
  uint64_t total = 0;
  uint64_t largest = 0;
  for (int32_t i = 0; i < 3; ++i) {
    auto view = opened->Map(i);
    ASSERT_TRUE(view.ok()) << view.status();
    ExpectLanesEqual(view->lanes(), catalogs[static_cast<size_t>(i)].Lanes());
    EXPECT_GT(opened->section_bytes(i), 0u);
    total += opened->section_bytes(i);
    largest = std::max(largest, opened->section_bytes(i));
  }
  EXPECT_EQ(opened->total_bytes(), total);
  EXPECT_EQ(opened->max_section_bytes(), largest);
}

TEST_F(CatalogSpillTest, LifecycleMisuseIsRefused) {
  auto spill = CatalogSpill::Create(TempPath("lifecycle.spill"));
  ASSERT_TRUE(spill.ok());
  // Map before Seal, Seal twice, Append after Seal.
  EXPECT_EQ(spill->Map(0).status().code(), StatusCode::kFailedPrecondition);
  Instance instance = MakeSynthetic(1);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  ASSERT_TRUE(spill->Append(catalog.Lanes()).ok());
  ASSERT_TRUE(spill->Seal().ok());
  EXPECT_EQ(spill->Seal().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(spill->Append(catalog.Lanes()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(spill->Map(1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(spill->Map(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CatalogSpillTest, TruncatedFileIsRefusedBeforeAnyAccessor) {
  std::vector<Instance> instances;
  std::vector<AdmissibleCatalog> catalogs;
  const std::string path =
      WriteSpill("trunc_src.spill", 2, &instances, &catalogs);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 4096u);
  // Chop at several depths: inside the header, inside a section, and just
  // shy of the trailer. Every prefix must be refused with IOError.
  for (size_t keep : {size_t{16}, size_t{63}, size_t{4100}, bytes.size() / 2,
                      bytes.size() - 1}) {
    const std::string path_t = TempPath("trunc.spill");
    WriteFileBytes(path_t, bytes.substr(0, keep));
    auto opened = CatalogSpill::Open(path_t);
    ASSERT_FALSE(opened.ok()) << "truncated to " << keep << " bytes";
    EXPECT_EQ(opened.status().code(), StatusCode::kIOError) << keep;
  }
}

TEST_F(CatalogSpillTest, FlippedSectionByteIsRefusedByCrc) {
  std::vector<Instance> instances;
  std::vector<AdmissibleCatalog> catalogs;
  const std::string path =
      WriteSpill("crc_src.spill", 2, &instances, &catalogs);
  std::string bytes = ReadFileBytes(path);
  // Flip one bit mid-payload (well past the 4096-byte first-section offset,
  // well before the directory): only the per-section CRC can catch it.
  bytes[4096 + 200] = static_cast<char>(bytes[4096 + 200] ^ 0x40);
  const std::string path_t = TempPath("crc.spill");
  WriteFileBytes(path_t, bytes);
  auto opened = CatalogSpill::Open(path_t);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().message().find("CRC"), std::string::npos)
      << opened.status();
}

TEST_F(CatalogSpillTest, FlippedDirectoryByteIsRefusedByTrailerCrc) {
  std::vector<Instance> instances;
  std::vector<AdmissibleCatalog> catalogs;
  const std::string path =
      WriteSpill("dir_src.spill", 2, &instances, &catalogs);
  std::string bytes = ReadFileBytes(path);
  // The directory sits just before the 8-byte trailer; corrupt its middle.
  bytes[bytes.size() - 8 - 24] =
      static_cast<char>(bytes[bytes.size() - 8 - 24] ^ 0x01);
  const std::string path_t = TempPath("dir.spill");
  WriteFileBytes(path_t, bytes);
  auto opened = CatalogSpill::Open(path_t);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
}

TEST_F(CatalogSpillTest, ForeignAndMissingFilesAreRefused) {
  // A valid igepa-bin,4-style prefix is still foreign to igepa-cat,2.
  const std::string path = TempPath("foreign.spill");
  std::string foreign(4200, '\0');
  foreign.replace(0, 8, "igepabin");
  WriteFileBytes(path, foreign);
  auto opened = CatalogSpill::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos)
      << opened.status();

  auto missing = CatalogSpill::Open("/nonexistent/dir/catalogs.spill");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

TEST_F(CatalogSpillTest, VersionOneFileIsRefusedByVersion) {
  // A complete, empty igepa-cat,1 file as the previous writer sealed it:
  // 64-byte header with the directory at 64, then CRC-32 + "IGC1".
  std::string bytes(72, '\0');
  auto* b = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(b, "igepacat", 8);
  PutU32(b + 8, 1);
  PutU64(b + 16, 64);  // directory offset; zero catalogs, zero bytes
  PutU32(b + 64, Crc32(b, 64));
  PutU32(b + 68, 0x31434749);
  const std::string path = TempPath("v1.spill");
  WriteFileBytes(path, bytes);
  auto opened = CatalogSpill::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().message().find("unsupported version 1"),
            std::string::npos)
      << opened.status();
}

TEST_F(CatalogSpillTest, EmptySealedSpillOpensWithZeroCatalogs) {
  const std::string path = TempPath("empty.spill");
  {
    auto spill = CatalogSpill::Create(path);
    ASSERT_TRUE(spill.ok());
    ASSERT_TRUE(spill->Seal().ok());
  }
  auto opened = CatalogSpill::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->num_catalogs(), 0);
  EXPECT_EQ(opened->total_bytes(), 0u);
}

}  // namespace
}  // namespace io
}  // namespace igepa
