// Cross-commit golden bits for the two subgradient engines. The values below
// were generated once from the solver as it stood before the fused oracle
// sweep (core/oracle_sweep.h) replaced the batched SumColumnLanes scan, and
// are checked in verbatim: every other determinism test compares two runs of
// one build, so only this file notices a kernel rewrite that drifts a bit.
//
// Each case records the exact IEEE-754 bits of the scalar outputs and a
// 64-bit FNV-1a hash over the bit patterns of every vector output. On a
// mismatch the failure message prints the full actual record, ready to paste
// back — but regenerating is only legitimate when a change is *meant* to move
// the numbers, and that change must say so.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "core/sharded_solver.h"
#include "gen/delta_stream.h"
#include "gen/synthetic.h"
#include "util/logging.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// FNV-1a over the raw bytes of each element.
template <typename T>
uint64_t Fnv(const std::vector<T>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const T& value : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// One pinned solve. Unused hashes stay 0 on both sides.
struct Golden {
  uint64_t objective = 0;
  uint64_t upper_bound = 0;
  int64_t iterations = 0;
  uint64_t x = 0;
  uint64_t duals = 0;
  uint64_t choice = 0;
  uint64_t choice_value = 0;

  bool operator==(const Golden&) const = default;

  std::string ToString() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, %" PRId64
                  ", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull, 0x%016" PRIx64 "ull}",
                  objective, upper_bound, iterations, x, duals, choice,
                  choice_value);
    return buf;
  }
};

Golden FromSolution(const lp::LpSolution& sol) {
  Golden g;
  g.objective = Bits(sol.objective);
  g.upper_bound = Bits(sol.upper_bound);
  g.iterations = sol.iterations;
  g.x = Fnv(sol.x);
  g.duals = Fnv(sol.duals);
  return g;
}

Instance MakeInstance(uint64_t seed, int32_t events, int32_t users) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  auto instance = gen::GenerateSynthetic(config, &rng);
  IGEPA_CHECK(instance.ok()) << instance.status();
  return std::move(*instance);
}

// ---- Expected records (generated before the fused oracle sweep). ----------
constexpr Golden kStructuredCold = {
    0x4089e8e9afd4f25dull, 0x4089fb0513bcc2a5ull, 25,
    0x3e868f7d8eba96a0ull, 0x899a2b2bdbefc6e7ull, 0x810b4358e586d129ull,
    0xc8f13f86adcbb770ull};
constexpr Golden kStructuredWarmDirty = {
    0x4088097fbfeaad20ull, 0x408835ea1ebe0220ull, 50,
    0x5bfbbde1b99e1b27ull, 0x2c9f1ef93e5dc2baull, 0xaa2c53839cdf997eull,
    0xc2a8f12d4c4556aeull};
// Sharded: objective/upper_bound = stats.lp_objective/lp_upper_bound,
// iterations = coordination_iterations, x = FNV of the arrangement's
// (event, user) pairs, duals = level1_iterations, choice = bits of the gap.
constexpr Golden kShardedInMemory = {
    0x40899f0cda870a14ull, 0x4089e14b23be7b5full, 75,
    0x5f6a27552e1c4716ull, 0x000000000000007dull, 0x3f847a1e2ec92b02ull,
    0};

TEST(GoldenBitsTest, StructuredColdSolveAtOneAndFourThreads) {
  const Instance instance = MakeInstance(41, 60, 900);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  for (int32_t threads : {1, 4}) {
    StructuredDualOptions options;
    options.num_threads = threads;
    DualWarmStart warm;
    auto sol = SolveBenchmarkLpStructured(instance, catalog, options, &warm);
    ASSERT_TRUE(sol.ok()) << sol.status();
    Golden got = FromSolution(*sol);
    got.choice = Fnv(warm.choice);
    got.choice_value = Fnv(warm.choice_value);
    EXPECT_EQ(got, kStructuredCold)
        << "threads=" << threads << " actual " << got.ToString();
  }
}

TEST(GoldenBitsTest, StructuredWarmSolveOnDirtyCatalogAtOneAndFourThreads) {
  Instance instance = MakeInstance(43, 60, 900);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());

  // Mutate ~2% of users without compacting: the warm solve then runs on a
  // catalog with tombstones and appended columns.
  Rng rng(77);
  gen::DeltaStreamConfig delta_config;
  delta_config.num_ticks = 1;
  delta_config.user_updates_per_tick = 18;
  delta_config.event_updates_per_tick = 2;
  const auto stream = gen::GenerateDeltaStream(instance, delta_config, &rng);
  ASSERT_EQ(stream.size(), 1u);
  ASSERT_TRUE(ApplyDelta(&instance, stream[0]).ok());
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  auto delta = catalog.ApplyDelta(instance, stream[0], no_compact);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_FALSE(delta->compacted);
  ASSERT_LT(catalog.num_live_columns(), catalog.num_columns());
  warm.stale.assign(static_cast<size_t>(instance.num_users()), 0);
  for (UserId u : delta->touched_users) {
    warm.stale[static_cast<size_t>(u)] = 1;
  }

  for (int32_t threads : {1, 4}) {
    StructuredDualOptions warm_options;
    warm_options.num_threads = threads;
    warm_options.warm = &warm;
    DualWarmStart warm_out;
    auto sol = SolveBenchmarkLpStructured(instance, catalog, warm_options,
                                          &warm_out);
    ASSERT_TRUE(sol.ok()) << sol.status();
    Golden got = FromSolution(*sol);
    got.choice = Fnv(warm_out.choice);
    got.choice_value = Fnv(warm_out.choice_value);
    EXPECT_EQ(got, kStructuredWarmDirty)
        << "threads=" << threads << " actual " << got.ToString();
  }
}

Golden FromSharded(const Arrangement& arrangement,
                   const ShardedSolveStats& stats) {
  Golden g;
  g.objective = Bits(stats.lp_objective);
  g.upper_bound = Bits(stats.lp_upper_bound);
  g.iterations = stats.coordination_iterations;
  g.x = Fnv(arrangement.pairs());
  g.duals = static_cast<uint64_t>(stats.level1_iterations);
  g.choice = Bits(stats.gap);
  return g;
}

TEST(GoldenBitsTest, ShardedSolveInMemoryAndAtOneShardBudget) {
  const Instance instance = MakeInstance(47, 50, 1200);
  ShardedSolveOptions options;
  options.num_shards = 5;
  options.num_threads = 2;

  Rng rng_mem(9);
  ShardedSolveStats stats_mem;
  auto in_memory = ShardedSolve(instance, &rng_mem, options, &stats_mem);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  const Golden got_mem = FromSharded(*in_memory, stats_mem);
  EXPECT_EQ(got_mem, kShardedInMemory) << "actual " << got_mem.ToString();

  // The one-shard budget forces an eviction on nearly every acquisition; it
  // must land on the very same record.
  ShardedSolveOptions generous = options;
  generous.memory_budget_bytes = uint64_t{1} << 30;
  Rng rng_probe(9);
  ShardedSolveStats probe;
  ASSERT_TRUE(ShardedSolve(instance, &rng_probe, generous, &probe).ok());
  ShardedSolveOptions budgeted = options;
  budgeted.memory_budget_bytes = probe.shard_footprint_bytes;
  Rng rng_budget(9);
  ShardedSolveStats stats_budget;
  auto spilled = ShardedSolve(instance, &rng_budget, budgeted, &stats_budget);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_GT(stats_budget.evictions, 0u);
  const Golden got_budget = FromSharded(*spilled, stats_budget);
  EXPECT_EQ(got_budget, kShardedInMemory)
      << "actual " << got_budget.ToString();
}

}  // namespace
}  // namespace core
}  // namespace igepa
