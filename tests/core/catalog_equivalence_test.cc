// Seeded equivalence between the production catalog pipeline (arena
// enumeration via AdmissibleCatalog::Build) and an independently enumerated
// catalog (tests/core/legacy_reference.h fed through FromSets): both must
// produce bit-identical LP objectives and, fed the same RNG stream,
// bit-identical arrangements — on random synthetic instances across both LP
// tiers and all repair orders.

#include <gtest/gtest.h>

#include <vector>

#include "core/admissible_catalog.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "tests/core/legacy_reference.h"
#include "tests/core/test_instances.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

Result<Instance> ScarceInstance(uint64_t seed, int32_t users) {
  // Small event capacities force capacity repair (the inverted-index hot
  // path), which is where the two sweeps could most plausibly diverge.
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = 25;
  config.num_users = users;
  config.max_event_capacity = 3;
  config.max_user_capacity = 3;
  return gen::GenerateSynthetic(config, &rng);
}

void ExpectEquivalent(const Instance& instance,
                      const LpPackingOptions& options, uint64_t round_seed) {
  const auto reference_catalog = AdmissibleCatalog::FromSets(
      instance,
      testing_reference::ReferenceEnumerate(instance, options.admissible));
  const auto catalog = AdmissibleCatalog::Build(instance, options.admissible);

  auto reference_lp =
      SolveBenchmarkLpForPacking(instance, reference_catalog, options);
  auto catalog_lp = SolveBenchmarkLpForPacking(instance, catalog, options);
  ASSERT_TRUE(reference_lp.ok()) << reference_lp.status();
  ASSERT_TRUE(catalog_lp.ok()) << catalog_lp.status();
  // Bit-identical objectives and certificates, not just near-equal.
  EXPECT_EQ(reference_lp->lp.objective, catalog_lp->lp.objective);
  EXPECT_EQ(reference_lp->lp.upper_bound, catalog_lp->lp.upper_bound);
  EXPECT_EQ(reference_lp->structured, catalog_lp->structured);
  ASSERT_EQ(reference_lp->lp.x.size(), catalog_lp->lp.x.size());
  EXPECT_EQ(reference_lp->lp.x, catalog_lp->lp.x);

  Rng rng_reference(round_seed);
  Rng rng_catalog(round_seed);
  LpPackingStats stats_reference;
  LpPackingStats stats_catalog;
  auto reference_arr =
      RoundFractional(instance, reference_catalog, *reference_lp,
                      &rng_reference, options, &stats_reference);
  auto catalog_arr = RoundFractional(instance, catalog, *catalog_lp,
                                     &rng_catalog, options, &stats_catalog);
  ASSERT_TRUE(reference_arr.ok()) << reference_arr.status();
  ASSERT_TRUE(catalog_arr.ok()) << catalog_arr.status();
  EXPECT_TRUE(catalog_arr->CheckFeasible(instance).ok());
  // Same sampled sets, same repair decisions => same pairs and utility bits.
  EXPECT_EQ(reference_arr->pairs(), catalog_arr->pairs());
  EXPECT_EQ(reference_arr->Utility(instance), catalog_arr->Utility(instance));
  EXPECT_EQ(stats_reference.pairs_repaired, stats_catalog.pairs_repaired);
  EXPECT_EQ(stats_reference.users_sampled, stats_catalog.users_sampled);
  EXPECT_EQ(stats_reference.num_columns, stats_catalog.num_columns);
  EXPECT_EQ(stats_reference.admissible_truncated,
            stats_catalog.admissible_truncated);
}

TEST(CatalogEquivalenceTest, TinyInstanceFacadeTier) {
  const Instance instance = MakeTinyInstance();
  LpPackingOptions options;
  options.benchmark_solver = BenchmarkSolverKind::kExact;
  ExpectEquivalent(instance, options, /*round_seed=*/101);
}

TEST(CatalogEquivalenceTest, SyntheticFacadeTierSeeds) {
  for (uint64_t seed : {3u, 5u, 7u}) {
    auto instance = ScarceInstance(seed, 60);
    ASSERT_TRUE(instance.ok());
    LpPackingOptions options;
    options.benchmark_solver = BenchmarkSolverKind::kExact;
    ExpectEquivalent(*instance, options, /*round_seed=*/seed * 13);
  }
}

TEST(CatalogEquivalenceTest, SyntheticStructuredTierSeeds) {
  for (uint64_t seed : {11u, 19u}) {
    auto instance = ScarceInstance(seed, 80);
    ASSERT_TRUE(instance.ok());
    LpPackingOptions options;
    options.benchmark_solver = BenchmarkSolverKind::kStructuredDual;
    ExpectEquivalent(*instance, options, /*round_seed=*/seed * 29);
  }
}

TEST(CatalogEquivalenceTest, AlphaHalfAndRepairOrders) {
  auto instance = ScarceInstance(43, 50);
  ASSERT_TRUE(instance.ok());
  for (RepairOrder order :
       {RepairOrder::kUserIndex, RepairOrder::kRandom,
        RepairOrder::kWeightDesc}) {
    LpPackingOptions options;
    options.alpha = 0.5;
    options.benchmark_solver = BenchmarkSolverKind::kExact;
    options.repair_order = order;
    ExpectEquivalent(*instance, options, /*round_seed=*/777);
  }
}

TEST(CatalogEquivalenceTest, TruncatedEnumerationStaysEquivalent) {
  auto instance = ScarceInstance(53, 40);
  ASSERT_TRUE(instance.ok());
  LpPackingOptions options;
  options.admissible.max_sets_per_user = 3;  // force truncation
  options.benchmark_solver = BenchmarkSolverKind::kExact;
  ExpectEquivalent(*instance, options, /*round_seed=*/999);
}

TEST(CatalogEquivalenceTest, EndToEndLpPackingMatchesReferenceCatalog) {
  auto instance = ScarceInstance(61, 70);
  ASSERT_TRUE(instance.ok());
  const auto reference_catalog = AdmissibleCatalog::FromSets(
      *instance, testing_reference::ReferenceEnumerate(*instance, {}));
  Rng rng_a(4242);
  Rng rng_b(4242);
  auto catalog_run = LpPacking(*instance, &rng_a, {});
  auto reference_run =
      LpPackingWithCatalog(*instance, reference_catalog, &rng_b, {});
  ASSERT_TRUE(catalog_run.ok());
  ASSERT_TRUE(reference_run.ok());
  EXPECT_EQ(catalog_run->pairs(), reference_run->pairs());
  EXPECT_EQ(catalog_run->Utility(*instance), reference_run->Utility(*instance));
}

}  // namespace
}  // namespace core
}  // namespace igepa
