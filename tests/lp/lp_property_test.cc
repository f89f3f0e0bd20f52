#include <gtest/gtest.h>

#include "lp/dense_simplex.h"
#include "tests/lp/lp_test_util.h"

namespace igepa {
namespace lp {
namespace {

/// Property sweep over random packing LPs, parameterized by RNG seed.
class PackingLpProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackingLpProperty, DenseSimplexSatisfiesKkt) {
  // Two shapes per seed, each drawn from its own stream: 12×36 and 18×60.
  struct Shape {
    uint64_t salt;
    int32_t rows;
    int32_t cols;
  };
  for (const Shape& shape : {Shape{0, 12, 36}, Shape{0xABCDEF, 18, 60}}) {
    SCOPED_TRACE(::testing::Message() << shape.rows << "x" << shape.cols);
    Rng rng(GetParam() ^ shape.salt);
    LpModel m = RandomPackingLp(&rng, shape.rows, shape.cols);
    auto sol = DenseSimplex().Solve(m);
    ASSERT_TRUE(sol.ok()) << sol.status();
    ASSERT_EQ(sol->status, SolveStatus::kOptimal);
    ExpectKktOptimal(m, *sol);
  }
}

TEST_P(PackingLpProperty, DualVectorIsDualFeasibleUpperBound) {
  Rng rng(GetParam() ^ 0x777777);
  LpModel m = RandomPackingLp(&rng, 10, 30);
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  // Weak duality evaluated by hand: b'y + sum_j max(0, c_j - y'A_j) * u_j
  // must be >= objective (it equals it at optimality for packing LPs).
  double bound = 0.0;
  for (int32_t i = 0; i < m.num_rows(); ++i) {
    bound += m.row(i).rhs * sol->duals[static_cast<size_t>(i)];
  }
  for (int32_t j = 0; j < m.num_cols(); ++j) {
    double rc = m.objective(j);
    for (const auto& e : m.column(j)) {
      rc -= sol->duals[static_cast<size_t>(e.row)] * e.value;
    }
    if (rc > 0.0 && std::isfinite(m.upper(j))) bound += rc * m.upper(j);
  }
  EXPECT_GE(bound, sol->objective - 1e-6);
  EXPECT_NEAR(bound, sol->objective, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingLpProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

/// Random *general-form* LPs (mixed senses, negative coefficients) where
/// feasibility is guaranteed by construction around a known point.
class GeneralLpProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneralLpProperty, DenseSimplexFindsCertifiedOptimum) {
  Rng rng(GetParam());
  const int32_t rows = 8;
  const int32_t cols = 14;
  // Known interior point z in [0, 2]^cols; rhs chosen so z is feasible.
  std::vector<double> z;
  for (int32_t j = 0; j < cols; ++j) z.push_back(2.0 * rng.NextDouble());
  LpModel m;
  std::vector<std::vector<double>> dense_rows(
      static_cast<size_t>(rows), std::vector<double>(cols, 0.0));
  for (int32_t i = 0; i < rows; ++i) {
    double activity = 0.0;
    for (int32_t j = 0; j < cols; ++j) {
      const double a = rng.UniformDouble(-1.0, 1.0);
      dense_rows[static_cast<size_t>(i)][static_cast<size_t>(j)] = a;
      activity += a * z[static_cast<size_t>(j)];
    }
    // Slack of at least 0.1 keeps z strictly feasible.
    m.AddRow(Sense::kLe, activity + 0.1 + rng.NextDouble());
  }
  for (int32_t j = 0; j < cols; ++j) {
    std::vector<ColumnEntry> entries;
    for (int32_t i = 0; i < rows; ++i) {
      entries.push_back({i, dense_rows[static_cast<size_t>(i)]
                                      [static_cast<size_t>(j)]});
    }
    m.AddColumn(rng.UniformDouble(-1.0, 1.0), 0.0, 3.0, std::move(entries));
  }
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  // Optimum at least as good as the known feasible point.
  EXPECT_GE(sol->objective, m.ObjectiveValue(z) - 1e-7);
  ExpectKktOptimal(m, *sol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralLpProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

}  // namespace
}  // namespace lp
}  // namespace igepa
