// Empirical validation of the paper's theory:
//   Lemma 1  — the benchmark LP optimum upper-bounds the IGEPA optimum;
//   Theorem 2 — with α = 1/2, E[utility of Algorithm 1] >= OPT / 4
//               (we verify the stronger per-instance statement
//                E[ALG] >= α(1-α)·LP* >= OPT/4 by Monte-Carlo averaging).
// Both Theorem-2 checks run on the exact tier and on the structured dual;
// on the latter the bounds scale by (1 - gap), where gap is the solve's
// certified relative duality gap and LP* is the DenseSimplex optimum.

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/exact.h"
#include "core/benchmark_lp.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "lp/dense_simplex.h"
#include "tests/core/test_instances.h"

namespace igepa {
namespace core {
namespace {

gen::SyntheticConfig TinyConfig(int32_t events, int32_t users) {
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  config.max_event_capacity = 3;
  config.max_user_capacity = 3;
  config.p_conflict = 0.3;
  config.p_friend = 0.5;
  return config;
}

double LpOptimum(const Instance& instance) {
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  auto sol = lp::DenseSimplex().Solve(bench.model);
  EXPECT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, lp::SolveStatus::kOptimal);
  return sol->objective;
}

TEST(TheoryTest, Lemma1LpUpperBoundsExactOptimum) {
  Rng master(2019);
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng = master.Fork();
    auto instance = gen::GenerateSynthetic(TinyConfig(8, 7), &rng);
    ASSERT_TRUE(instance.ok());
    algo::ExactStats stats;
    auto exact = algo::SolveExact(*instance, {}, &stats);
    ASSERT_TRUE(exact.ok()) << exact.status();
    const double lp_value = LpOptimum(*instance);
    EXPECT_GE(lp_value, stats.optimum - 1e-7)
        << "LP must dominate OPT (trial " << trial << ")";
  }
}

/// Mean utility of `trials` runs of Algorithm 1 at α = 1/2 (the Theorem-2
/// setting) on one LP tier, with the certified relative gap of its LP solve
/// (0 on the exact tier).
struct AlphaHalfRuns {
  double mean_utility = 0.0;
  double gap = 0.0;
};

/// Solves line 1 once on `tier`, then rounds `trials` times, each run on a
/// fresh fork of `master`. Line 1 draws no randomness, so this is the same
/// sequence of arrangements as `trials` LpPacking calls.
AlphaHalfRuns RunAlphaHalf(const Instance& instance, BenchmarkSolverKind tier,
                           int trials, Rng* master) {
  LpPackingOptions options;
  options.alpha = 0.5;
  options.benchmark_solver = tier;
  const auto catalog = AdmissibleCatalog::Build(instance, options.admissible);
  auto fractional = SolveBenchmarkLpForPacking(instance, catalog, options);
  EXPECT_TRUE(fractional.ok()) << fractional.status();
  if (!fractional.ok()) return {};
  AlphaHalfRuns runs;
  runs.gap = std::max(0.0, fractional->lp.RelativeGap());
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng = master->Fork();
    auto result =
        RoundFractional(instance, catalog, *fractional, &rng, options);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return {};
    EXPECT_TRUE(result->CheckFeasible(instance).ok());
    total += result->Utility(instance);
  }
  runs.mean_utility = total / trials;
  return runs;
}

const char* TierName(BenchmarkSolverKind tier) {
  return tier == BenchmarkSolverKind::kStructuredDual ? "StructuredDual"
                                                      : "Exact";
}

/// Theorem 2 on one LP tier: E[ALG] >= OPT/4, scaled by (1 - gap) on an
/// approximate tier.
void ExpectTheoremTwo(uint64_t seed, BenchmarkSolverKind tier) {
  Rng master(seed);
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(8, 7), &gen_rng);
  ASSERT_TRUE(instance.ok());

  algo::ExactStats exact_stats;
  auto exact = algo::SolveExact(*instance, {}, &exact_stats);
  ASSERT_TRUE(exact.ok()) << exact.status();
  const double opt = exact_stats.optimum;
  if (opt <= 1e-9) GTEST_SKIP() << "degenerate instance with OPT=0";

  const AlphaHalfRuns runs = RunAlphaHalf(*instance, tier, 300, &master);
  // A 300-sample mean has noticeable variance, so allow a small statistical
  // slack below the bound — in practice the mean sits far above it.
  EXPECT_GE(runs.mean_utility, 0.25 * (1.0 - runs.gap) * opt * 0.9)
      << TierName(tier) << " E[ALG]=" << runs.mean_utility << " OPT=" << opt
      << " gap=" << runs.gap;
  if (tier == BenchmarkSolverKind::kStructuredDual) {
    // The proof's stronger per-instance form against the exact LP optimum.
    const double lp_value = LpOptimum(*instance);
    EXPECT_GE(runs.mean_utility, 0.25 * (1.0 - runs.gap) * lp_value * 0.9)
        << "E[ALG]=" << runs.mean_utility << " LP*=" << lp_value
        << " gap=" << runs.gap;
  }
}

class TheoremTwoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremTwoTest, ExpectedUtilityBeatsQuarterOptimum) {
  ExpectTheoremTwo(GetParam(), BenchmarkSolverKind::kAuto);
}

TEST_P(TheoremTwoTest, ExpectedUtilityBeatsQuarterOptimumStructuredDual) {
  ExpectTheoremTwo(GetParam(), BenchmarkSolverKind::kStructuredDual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremTwoTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/// The proof's intermediate inequality: E[ALG] >= α(1-α)·(1-gap)·LP*.
void ExpectAlphaHalfSamplingBound(BenchmarkSolverKind tier) {
  Rng master(77);
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(10, 9), &gen_rng);
  ASSERT_TRUE(instance.ok());
  const double lp_value = LpOptimum(*instance);
  if (lp_value <= 1e-9) GTEST_SKIP();
  const AlphaHalfRuns runs = RunAlphaHalf(*instance, tier, 400, &master);
  EXPECT_GE(runs.mean_utility, 0.25 * (1.0 - runs.gap) * lp_value * 0.9)
      << TierName(tier) << " E[ALG]=" << runs.mean_utility
      << " LP*=" << lp_value << " gap=" << runs.gap;
}

TEST(TheoryTest, AlphaHalfSamplingBoundHoldsAgainstLp) {
  ExpectAlphaHalfSamplingBound(BenchmarkSolverKind::kAuto);
}

TEST(TheoryTest, AlphaHalfSamplingBoundHoldsAgainstLpStructuredDual) {
  ExpectAlphaHalfSamplingBound(BenchmarkSolverKind::kStructuredDual);
}

TEST(TheoryTest, PaperAlphaOneDominatesAlphaHalfOnAverage) {
  // The experiments set α=1 because sampling more mass yields more pairs;
  // verify that design choice empirically.
  Rng master(88);
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(10, 12), &gen_rng);
  ASSERT_TRUE(instance.ok());
  const int trials = 200;
  double total_half = 0.0, total_one = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng_half = master.Fork();
    LpPackingOptions half;
    half.alpha = 0.5;
    auto a = LpPacking(*instance, &rng_half, half);
    ASSERT_TRUE(a.ok());
    total_half += a->Utility(*instance);
    Rng rng_one = master.Fork();
    auto b = LpPacking(*instance, &rng_one, {});
    ASSERT_TRUE(b.ok());
    total_one += b->Utility(*instance);
  }
  EXPECT_GT(total_one, total_half);
}

}  // namespace
}  // namespace core
}  // namespace igepa
