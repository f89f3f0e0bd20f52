// The fused per-user oracle (core/oracle_sweep.h) against the reference it
// replaced in both subgradient engines: util::simd::SumColumnLanes over the
// user's columns into a scratch buffer, then a strict-> argmax walk. Every
// comparison runs the reference at the forced scalar level and at the
// detected level, so the pin holds for -DIGEPA_SIMD=off builds (where both
// are scalar) and for AVX2 builds alike.

#include "core/oracle_sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "gen/delta_stream.h"
#include "gen/synthetic.h"
#include "util/rng.h"
#include "util/simd.h"

namespace igepa {
namespace core {
namespace {

OracleChoice ReferenceOracle(const double* weight, const EventId* pool,
                             const int64_t* col_begin, const double* mu,
                             int32_t begin, int32_t end) {
  OracleChoice best;
  if (begin >= end) return best;
  std::vector<double> musum(static_cast<size_t>(end - begin), 0.0);
  util::simd::SumColumnLanes(mu, pool, col_begin + begin, end - begin,
                             musum.data());
  for (int32_t k = 0; k < end - begin; ++k) {
    const double reduced = weight[begin + k] - musum[static_cast<size_t>(k)];
    if (reduced > best.value) {
      best.value = reduced;
      best.column = begin + k;
    }
  }
  return best;
}

/// Restores the detected SIMD level when a test exits.
class SimdLevelGuard {
 public:
  ~SimdLevelGuard() { util::simd::ResetLevel(); }
};

/// Asserts the fused kernel equals the reference, bit for bit, at both
/// dispatch levels of the reference.
void ExpectMatchesReference(const double* weight, const EventId* pool,
                            const int64_t* col_begin, const double* mu,
                            int32_t begin, int32_t end) {
  SimdLevelGuard guard;
  const OracleChoice got =
      BestReducedColumn(weight, pool, col_begin, mu, begin, end);
  for (const util::simd::Level level :
       {util::simd::Level::kScalar, util::simd::DetectedLevel()}) {
    util::simd::ForceLevel(level);
    const OracleChoice want =
        ReferenceOracle(weight, pool, col_begin, mu, begin, end);
    EXPECT_EQ(got.column, want.column)
        << "range [" << begin << ", " << end << ") level "
        << static_cast<int>(level);
    EXPECT_EQ(got.value, want.value)
        << "range [" << begin << ", " << end << ") level "
        << static_cast<int>(level);
  }
}

/// A hand-written CSR user block: column k holds `sets[k]`.
struct Block {
  std::vector<EventId> pool;
  std::vector<int64_t> col_begin{0};
  std::vector<double> weight;

  Block(const std::vector<std::vector<EventId>>& sets,
        std::vector<double> weights)
      : weight(std::move(weights)) {
    for (const auto& set : sets) {
      pool.insert(pool.end(), set.begin(), set.end());
      col_begin.push_back(static_cast<int64_t>(pool.size()));
    }
  }
  int32_t size() const { return static_cast<int32_t>(weight.size()); }
  OracleChoice Run(const std::vector<double>& mu) const {
    ExpectMatchesReference(weight.data(), pool.data(), col_begin.data(),
                           mu.data(), 0, size());
    return BestReducedColumn(weight.data(), pool.data(), col_begin.data(),
                             mu.data(), 0, size());
  }
};

TEST(OracleSweepTest, TiedReducedCostsGoToTheLowestColumnId) {
  // Reduced costs 0.25, 0.5, 0.5, 0.5 (exact in binary): column 1 wins.
  const Block block({{0}, {1}, {0, 1}, {2}}, {0.5, 0.75, 1.0, 0.5});
  const std::vector<double> mu = {0.25, 0.25, 0.0};
  const OracleChoice best = block.Run(mu);
  EXPECT_EQ(best.column, 1);
  EXPECT_EQ(best.value, 0.5);
}

TEST(OracleSweepTest, NoPositiveReducedCostGivesMinusOne) {
  // Reduced costs −0.25, 0 and −1: zero is not strictly better than "none".
  const Block block({{0}, {1}, {0, 1}}, {0.25, 0.5, 0.0});
  const std::vector<double> mu = {0.5, 0.5};
  const OracleChoice best = block.Run(mu);
  EXPECT_EQ(best.column, -1);
  EXPECT_EQ(best.value, 0.0);
}

TEST(OracleSweepTest, EmptyUserRangeGivesMinusOne) {
  const Block block({{0}, {1}}, {1.0, 2.0});
  const std::vector<double> mu = {0.0, 0.0};
  for (int32_t at : {0, 1, 2}) {
    ExpectMatchesReference(block.weight.data(), block.pool.data(),
                           block.col_begin.data(), mu.data(), at, at);
    const OracleChoice best =
        BestReducedColumn(block.weight.data(), block.pool.data(),
                          block.col_begin.data(), mu.data(), at, at);
    EXPECT_EQ(best.column, -1);
    EXPECT_EQ(best.value, 0.0);
  }
}

TEST(OracleSweepTest, ZeroPricedEventsAndEmptyColumnsKeepTheWeight) {
  // With μ = 0 on every event of a column, reduced cost is exactly w; an
  // empty column (no events) also scores exactly w.
  const Block block({{0, 1}, {}, {2, 0, 1}, {1}},
                    {0.3, 0.7, 0.9, 0.1});
  const std::vector<double> mu = {0.0, 0.0, 0.5};
  const OracleChoice best = block.Run(mu);
  EXPECT_EQ(best.column, 1);
  EXPECT_EQ(best.value, 0.7);
}

TEST(OracleSweepTest, RaggedRandomBlocksMatchTheReference) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t num_events = 1 + static_cast<int32_t>(rng.NextIndex(40));
    const int32_t num_columns = static_cast<int32_t>(rng.NextIndex(24));
    std::vector<std::vector<EventId>> sets;
    std::vector<double> weights;
    for (int32_t k = 0; k < num_columns; ++k) {
      std::vector<EventId> set(rng.NextIndex(9));
      for (EventId& v : set) {
        v = static_cast<EventId>(rng.NextIndex(
            static_cast<uint64_t>(num_events)));
      }
      sets.push_back(std::move(set));
      weights.push_back(rng.NextDouble() * 3.0);
    }
    std::vector<double> mu(static_cast<size_t>(num_events));
    for (double& m : mu) m = rng.NextIndex(4) == 0 ? 0.0 : rng.NextDouble();
    Block(sets, std::move(weights)).Run(mu);
  }
}

TEST(OracleSweepTest, DirtyCatalogRangesMatchTheReferenceAndCompactedTwin) {
  Rng rng(13);
  gen::SyntheticConfig config;
  config.num_users = 400;
  config.num_events = 40;
  auto generated = gen::GenerateSynthetic(config, &rng);
  ASSERT_TRUE(generated.ok()) << generated.status();
  Instance instance = std::move(*generated);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);

  // Realistic prices: the duals of a solve on the base catalog.
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());
  const std::vector<double>& mu = warm.mu;

  gen::DeltaStreamConfig delta_config;
  delta_config.num_ticks = 1;
  delta_config.user_updates_per_tick = 20;
  const auto stream = gen::GenerateDeltaStream(instance, delta_config, &rng);
  ASSERT_EQ(stream.size(), 1u);
  ASSERT_TRUE(ApplyDelta(&instance, stream[0]).ok());
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  auto delta = catalog.ApplyDelta(instance, stream[0], no_compact);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_LT(catalog.num_live_columns(), catalog.num_columns());

  std::vector<OracleChoice> dirty(static_cast<size_t>(instance.num_users()));
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const int32_t begin = catalog.user_columns_begin(u);
    const int32_t end = catalog.user_columns_end(u);
    ExpectMatchesReference(catalog.weights().data(), catalog.pool().data(),
                           catalog.col_begin().data(), mu.data(), begin, end);
    dirty[static_cast<size_t>(u)] =
        BestReducedColumn(catalog.weights().data(), catalog.pool().data(),
                          catalog.col_begin().data(), mu.data(), begin, end);
  }

  // Tombstones never enter a user's range: the compacted catalog answers
  // with the renumbered column and the same value bits.
  const std::vector<int32_t> remap = catalog.Compact();
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const OracleChoice compacted = BestReducedColumn(
        catalog.weights().data(), catalog.pool().data(),
        catalog.col_begin().data(), mu.data(), catalog.user_columns_begin(u),
        catalog.user_columns_end(u));
    const OracleChoice& before = dirty[static_cast<size_t>(u)];
    EXPECT_EQ(compacted.column,
              before.column < 0
                  ? -1
                  : remap[static_cast<size_t>(before.column)])
        << "user " << u;
    EXPECT_EQ(compacted.value, before.value) << "user " << u;
  }
}

}  // namespace
}  // namespace core
}  // namespace igepa
