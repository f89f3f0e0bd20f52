// Checkpointer: EngineSnapshot round trip with exact doubles (including the
// sub-0.1 values fixed-precision formatting would corrupt), CRC rejection of
// tampered files, refusal of the old text format, and the cold-start
// NotFound contract.

#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "gen/synthetic.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace igepa {
namespace serve {
namespace {

std::string StateDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  EXPECT_TRUE(Checkpointer::EnsureDirectory(dir).ok());
  std::remove(Checkpointer::SnapshotPath(dir).c_str());
  return dir;
}

core::Instance MakeInstance() {
  Rng rng(17);
  gen::SyntheticConfig config;
  config.num_users = 40;
  config.num_events = 10;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

EngineSnapshot MakeSnapshot() {
  EngineSnapshot snap;
  snap.next_epoch = 12;
  snap.next_version = 14;
  snap.deltas_applied = 57;
  snap.rng_state = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 1ULL,
                    0xffffffffffffffffULL};
  // Doubles chosen to break decimal round-tripping if the format were naive:
  // denormal-ish magnitudes, values below 0.1, and exact dyadics.
  snap.mu = {0.0123456789012345678, 1e-300, 0.5, -3.75};
  snap.choice = {-1, 0, 7, 2};
  snap.choice_value = {0.099999999999999997, 2.0 / 3.0, 0.0, 1.0};
  snap.stale = {1, 0, 0, 1};
  snap.sampled_col = {-1, 3, 5};
  snap.demand = {0, 2, 1};
  snap.cutoff = {1, 0, 4};
  snap.lp_status = 1;
  snap.lp_objective = 41.684018092384573;
  snap.lp_upper_bound = 41.684018092384609;
  snap.lp_iterations = 321;
  snap.x = {0.25, 0.031249999999999997, 1.0};
  snap.duals = {0.7, -0.0, 1e-17};
  snap.instance.emplace(MakeInstance());
  return snap;
}

TEST(CheckpointTest, RoundTripsEveryFieldExactly) {
  const std::string dir = StateDir("checkpoint_roundtrip");
  const EngineSnapshot snap = MakeSnapshot();
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  auto loaded = Checkpointer::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->next_epoch, snap.next_epoch);
  EXPECT_EQ(loaded->next_version, snap.next_version);
  EXPECT_EQ(loaded->deltas_applied, snap.deltas_applied);
  EXPECT_EQ(loaded->rng_state, snap.rng_state);
  EXPECT_EQ(loaded->mu, snap.mu);
  EXPECT_EQ(loaded->choice, snap.choice);
  EXPECT_EQ(loaded->choice_value, snap.choice_value);
  EXPECT_EQ(loaded->stale, snap.stale);
  EXPECT_EQ(loaded->sampled_col, snap.sampled_col);
  EXPECT_EQ(loaded->demand, snap.demand);
  EXPECT_EQ(loaded->cutoff, snap.cutoff);
  EXPECT_EQ(loaded->lp_status, snap.lp_status);
  EXPECT_EQ(loaded->lp_objective, snap.lp_objective);
  EXPECT_EQ(loaded->lp_upper_bound, snap.lp_upper_bound);
  EXPECT_EQ(loaded->lp_iterations, snap.lp_iterations);
  EXPECT_EQ(loaded->x, snap.x);
  EXPECT_EQ(loaded->duals, snap.duals);
  ASSERT_TRUE(loaded->instance.has_value());
  // The embedded instance round-trips every weight exactly (dense interest,
  // %.17g) — the recovery pipeline's bit-identity depends on this.
  const core::Instance& got = *loaded->instance;
  const core::Instance& want = *snap.instance;
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_events(), want.num_events());
  EXPECT_EQ(got.beta(), want.beta());
  for (core::UserId u = 0; u < want.num_users(); ++u) {
    EXPECT_EQ(got.bids(u), want.bids(u)) << "user " << u;
    EXPECT_EQ(got.Degree(u), want.Degree(u)) << "user " << u;
    for (core::EventId v = 0; v < want.num_events(); ++v) {
      EXPECT_EQ(got.Interest(v, u), want.Interest(v, u))
          << "pair (" << v << "," << u << ")";
    }
  }
}

TEST(CheckpointTest, SecondWriteAtomicallyReplacesTheFirst) {
  const std::string dir = StateDir("checkpoint_replace");
  EngineSnapshot snap = MakeSnapshot();
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  snap.next_epoch = 99;
  snap.deltas_applied = 1000;
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  auto loaded = Checkpointer::Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->next_epoch, 99);
  EXPECT_EQ(loaded->deltas_applied, 1000);
}

TEST(CheckpointTest, MissingSnapshotIsNotFound) {
  auto loaded = Checkpointer::Load(StateDir("checkpoint_missing"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, TamperedBytesFailTheCrc) {
  const std::string dir = StateDir("checkpoint_tamper");
  ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot()).ok());
  const std::string path = Checkpointer::SnapshotPath(dir);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, TruncatedFileIsAnError) {
  const std::string dir = StateDir("checkpoint_truncated");
  ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot()).ok());
  const std::string path = Checkpointer::SnapshotPath(dir);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, TextSnapshotVersionOneIsRefused) {
  // A complete igepa-snapshot,1 file in the previous line-oriented text
  // format, CRC line included: refused, and the refusal names it.
  const std::string dir = StateDir("checkpoint_text_v1");
  const std::string instance_csv =
      "igepa,1,1,1,0.5\nevent,0,1\nuser,0,1,0\ninterest,0,0,0.5\n"
      "degree,0,0\n";
  std::string body =
      "igepa-snapshot,1,1,2,0\n"
      "rng,0000000000000001,0000000000000002,0000000000000003,"
      "0000000000000004\n"
      "mu,0,\nchoice,0,\nchoice_value,0,\nstale,0,\nsampled_col,0,\n"
      "demand,0,\ncutoff,0,\nlp,0,0000000000000000,0000000000000000,0\n"
      "x,0,\nduals,0,\ninstance," +
      std::to_string(instance_csv.size()) + "\n" + instance_csv;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(body));
  body += "crc," + std::string(crc) + "\n";
  {
    std::ofstream out(Checkpointer::SnapshotPath(dir), std::ios::binary);
    out << body;
  }
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("igepa-snapshot,1"),
            std::string::npos)
      << loaded.status();
}

TEST(CheckpointTest, WriteRequiresAnInstance) {
  EngineSnapshot snap = MakeSnapshot();
  snap.instance.reset();
  EXPECT_EQ(
      Checkpointer::Write(StateDir("checkpoint_noinst"), snap).code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace igepa
