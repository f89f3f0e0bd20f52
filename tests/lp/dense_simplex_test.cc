#include "lp/dense_simplex.h"

#include <gtest/gtest.h>

#include "tests/lp/lp_test_util.h"

namespace igepa {
namespace lp {
namespace {

TEST(DenseSimplexTest, ClassicTwoVariableLp) {
  // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0.  Optimum 12 at
  // (4, 0).
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 4.0);
  const int32_t r1 = m.AddRow(Sense::kLe, 6.0);
  m.AddColumn(3.0, 0.0, kInf, {{r0, 1.0}, {r1, 1.0}});
  m.AddColumn(2.0, 0.0, kInf, {{r0, 1.0}, {r1, 3.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 12.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 4.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 0.0, 1e-9);
  ExpectKktOptimal(m, *sol);
}

TEST(DenseSimplexTest, InteriorOptimum) {
  // max x + y  s.t.  2x + y <= 10,  x + 3y <= 15.  Optimum at intersection
  // (3, 4): objective 7.
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 10.0);
  const int32_t r1 = m.AddRow(Sense::kLe, 15.0);
  m.AddColumn(1.0, 0.0, kInf, {{r0, 2.0}, {r1, 1.0}});
  m.AddColumn(1.0, 0.0, kInf, {{r0, 1.0}, {r1, 3.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 7.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 3.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 4.0, 1e-9);
  ExpectKktOptimal(m, *sol);
}

TEST(DenseSimplexTest, BoundOnlyModel) {
  // No rows: max 5x - y with x in [0, 10], y in [2, 8] -> x=10, y=2.
  LpModel m;
  m.AddColumn(5.0, 0.0, 10.0, {});
  m.AddColumn(-1.0, 2.0, 8.0, {});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 48.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 10.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 2.0, 1e-9);
}

TEST(DenseSimplexTest, UnboundedDetected) {
  LpModel m;
  m.AddColumn(1.0, 0.0, kInf, {});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kUnbounded);
}

TEST(DenseSimplexTest, UnboundedViaRecession) {
  // max x - y s.t. x - y <= 1: direction (1,1)... no wait that has zero
  // objective growth; use x - 2y <= 1, max x - y: direction (2,1) grows
  // objective by 1 and keeps activity 0. Unbounded.
  LpModel m;
  const int32_t r = m.AddRow(Sense::kLe, 1.0);
  m.AddColumn(1.0, 0.0, kInf, {{r, 1.0}});
  m.AddColumn(-1.0, 0.0, kInf, {{r, -2.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kUnbounded);
}

TEST(DenseSimplexTest, InfeasibleDetected) {
  // x <= -5 with x >= 0.
  LpModel m;
  const int32_t r = m.AddRow(Sense::kLe, -5.0);
  m.AddColumn(1.0, 0.0, kInf, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kInfeasible);
}

TEST(DenseSimplexTest, InfeasibleEquality) {
  // x + y = 10 with x,y in [0,2].
  LpModel m;
  const int32_t r = m.AddRow(Sense::kEq, 10.0);
  m.AddColumn(1.0, 0.0, 2.0, {{r, 1.0}});
  m.AddColumn(1.0, 0.0, 2.0, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kInfeasible);
}

TEST(DenseSimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x,y >= 0  ==  max -2x - 3y. Optimum -8 at
  // (4, 0).
  LpModel m;
  const int32_t r = m.AddRow(Sense::kGe, 4.0);
  m.AddColumn(-2.0, 0.0, kInf, {{r, 1.0}});
  m.AddColumn(-3.0, 0.0, kInf, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, -8.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 4.0, 1e-9);
}

TEST(DenseSimplexTest, EqualityRow) {
  // max x + 2y s.t. x + y = 5, x <= 3, y <= 3 -> (2,3), objective 8.
  LpModel m;
  const int32_t r = m.AddRow(Sense::kEq, 5.0);
  m.AddColumn(1.0, 0.0, 3.0, {{r, 1.0}});
  m.AddColumn(2.0, 0.0, 3.0, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 8.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 3.0, 1e-9);
}

TEST(DenseSimplexTest, FreeVariable) {
  // max y s.t. y - x <= 0, x <= 3 (bound), y free -> y = 3.
  LpModel m;
  const int32_t r = m.AddRow(Sense::kLe, 0.0);
  m.AddColumn(0.0, 0.0, 3.0, {{r, -1.0}});
  m.AddColumn(1.0, -kInf, kInf, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 3.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 3.0, 1e-9);
}

TEST(DenseSimplexTest, FreeVariableNegativeOptimum) {
  // max -y s.t. y >= -7 (bound via lower), y free otherwise -> y = -7.
  LpModel m;
  m.AddColumn(-1.0, -7.0, kInf, {});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 7.0, 1e-9);
  EXPECT_NEAR(sol->x[0], -7.0, 1e-9);
}

TEST(DenseSimplexTest, NegativeBoundsWindow) {
  LpModel m;
  m.AddColumn(1.0, -5.0, -2.0, {});
  m.AddColumn(-1.0, -5.0, -2.0, {});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], -2.0, 1e-9);
  EXPECT_NEAR(sol->x[1], -5.0, 1e-9);
  EXPECT_NEAR(sol->objective, 3.0, 1e-9);
}

TEST(DenseSimplexTest, DegenerateLpTerminates) {
  // Beale's cycling example (terminates with Bland's safeguard):
  // max 0.75x1 - 150x2 + 0.02x3 - 6x4
  // s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
  //      0.5 x1 - 90x2 - 0.02x3 + 3x4 <= 0
  //      x3 <= 1. Optimum 0.05.
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 0.0);
  const int32_t r1 = m.AddRow(Sense::kLe, 0.0);
  const int32_t r2 = m.AddRow(Sense::kLe, 1.0);
  m.AddColumn(0.75, 0.0, kInf, {{r0, 0.25}, {r1, 0.5}});
  m.AddColumn(-150.0, 0.0, kInf, {{r0, -60.0}, {r1, -90.0}});
  m.AddColumn(0.02, 0.0, kInf, {{r0, -0.04}, {r1, -0.02}, {r2, 1.0}});
  m.AddColumn(-6.0, 0.0, kInf, {{r0, 9.0}, {r1, 3.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 0.05, 1e-9);
}

TEST(DenseSimplexTest, StrongDualityOnOptimal) {
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 14.0);
  const int32_t r1 = m.AddRow(Sense::kLe, 28.0);
  const int32_t r2 = m.AddRow(Sense::kLe, 30.0);
  m.AddColumn(1.0, 0.0, kInf, {{r0, 2.0}, {r1, 4.0}, {r2, 2.0}});
  m.AddColumn(2.0, 0.0, kInf, {{r0, 1.0}, {r1, 3.0}, {r2, 5.0}});
  m.AddColumn(3.0, 0.0, kInf, {{r0, 1.0}, {r1, 2.0}, {r2, 5.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  // Strong duality: b'y == c'x at optimum.
  double dual_value = 0.0;
  for (int32_t i = 0; i < m.num_rows(); ++i) {
    dual_value += m.row(i).rhs * sol->duals[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(dual_value, sol->objective, 1e-7);
  ExpectKktOptimal(m, *sol);
}

TEST(DenseSimplexTest, UpperBoundedVariablesHitBounds) {
  // max x + y s.t. x + y <= 10, x <= 2 (bound), y <= 3 (bound) -> 5.
  LpModel m;
  const int32_t r = m.AddRow(Sense::kLe, 10.0);
  m.AddColumn(1.0, 0.0, 2.0, {{r, 1.0}});
  m.AddColumn(1.0, 0.0, 3.0, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 5.0, 1e-9);
  ExpectKktOptimal(m, *sol);
}

TEST(DenseSimplexTest, ZeroObjectiveReturnsFeasible) {
  LpModel m;
  const int32_t r = m.AddRow(Sense::kGe, 2.0);
  m.AddColumn(0.0, 0.0, 5.0, {{r, 1.0}});
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 0.0, 1e-9);
  EXPECT_LE(m.MaxInfeasibility(sol->x), 1e-9);
}

TEST(DenseSimplexTest, EmptyModel) {
  LpModel m;
  auto sol = DenseSimplex().Solve(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_EQ(sol->objective, 0.0);
}

TEST(SolveStatusTest, NamesAreStable) {
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kOptimal), "Optimal");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kApproximate), "Approximate");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kInfeasible), "Infeasible");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kUnbounded), "Unbounded");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kIterationLimit),
               "IterationLimit");
}

}  // namespace
}  // namespace lp
}  // namespace igepa
