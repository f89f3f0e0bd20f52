// Self-tests of the benchmark's own accounting: the percentile rule, the
// delta -> epoch publish attribution and the failed-op fraction.

#include "report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, SamplesBeyondIsNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10);
  EXPECT_EQ(SamplesBeyond(19, 0.5), 9);
  EXPECT_EQ(SamplesBeyond(1, 0.5), 0);
}

TEST(PercentileRule, ReportsHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
  TailStat s = ComputeTail(OneToN(1000));
  EXPECT_EQ(s.count, 1000);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_TRUE(s.tail_valid);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990);

  // 999 samples: p99 has 9 beyond, so the rule falls back to p90.
  s = ComputeTail(OneToN(999));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 900);

  // 10000 samples reach p99.9.
  s = ComputeTail(OneToN(10000));
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.9);
  EXPECT_DOUBLE_EQ(s.tail, 9990);
}

TEST(PercentileRule, TooFewSamplesHasNoValidTail) {
  const TailStat s = ComputeTail(OneToN(19));
  EXPECT_EQ(s.count, 19);
  EXPECT_FALSE(s.tail_valid);
  EXPECT_DOUBLE_EQ(s.tail, s.p50);
  EXPECT_EQ(ComputeTail({}).count, 0);
}

TEST(PercentileRule, RejectedRequestsAreInfinitelySlow) {
  std::vector<double> v = OneToN(990);
  for (int i = 0; i < 10; ++i) v.push_back(kInf);
  const TailStat s = ComputeTail(v);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990);
  v.push_back(kInf);
  EXPECT_TRUE(std::isinf(ComputeTail(v).tail));
}

TEST(PublishAttribution, FifoOverEpochsWithRejections) {
  // Deltas 0..5 due at t = 0..5; delta 2 rejected. Epoch 1 (version 2)
  // coalesced two deltas, epoch 2 (version 3) the other three.
  const std::vector<double> due = {0, 1, 2, 3, 4, 5};
  const std::vector<bool> accepted = {true, true, false, true, true, true};
  const std::vector<EpochRecord> epochs = {{2, 2}, {3, 3}};
  // The reader skipped version 2 entirely and saw version 3 at t = 10.
  const std::vector<Sighting> seen = {{1, 0.5}, {3, 10.0}};
  const std::vector<double> lat =
      AttributePublishLatency(due, accepted, epochs, seen);
  ASSERT_EQ(lat.size(), 6u);
  EXPECT_DOUBLE_EQ(lat[0], 10.0);  // first sight of a version >= 2
  EXPECT_DOUBLE_EQ(lat[1], 9.0);
  EXPECT_TRUE(std::isinf(lat[2]));  // rejected
  EXPECT_DOUBLE_EQ(lat[3], 7.0);
  EXPECT_DOUBLE_EQ(lat[4], 6.0);
  EXPECT_DOUBLE_EQ(lat[5], 5.0);
}

TEST(PublishAttribution, EachEpochUsesItsOwnFirstSighting) {
  const std::vector<double> due = {0, 0, 0};
  const std::vector<bool> accepted = {true, true, true};
  const std::vector<EpochRecord> epochs = {{2, 1}, {3, 1}, {4, 1}};
  const std::vector<Sighting> seen = {{2, 1.0}, {3, 2.0}, {4, 3.0}};
  EXPECT_EQ(AttributePublishLatency(due, accepted, epochs, seen),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(PublishAttribution, UnpublishedAndUnseenDeltasAreInfinite) {
  const std::vector<double> due = {0, 0, 0};
  const std::vector<bool> accepted = {true, true, true};
  // Only two deltas were applied, and the reader never saw version 3.
  const std::vector<EpochRecord> epochs = {{2, 1}, {3, 1}};
  const std::vector<Sighting> seen = {{2, 1.0}};
  const std::vector<double> lat =
      AttributePublishLatency(due, accepted, epochs, seen);
  EXPECT_DOUBLE_EQ(lat[0], 1.0);
  EXPECT_TRUE(std::isinf(lat[1]));
  EXPECT_TRUE(std::isinf(lat[2]));
}

TEST(FailedFraction, CountsEveryKindOfFailedOp) {
  OpTally tally;
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 0.0);
  tally.AddMany(100, 3);  // submits, three rejected
  tally.AddMany(50, 1);   // reads, one null
  tally.Add(false);       // an epoch error
  tally.Add(true);        // a solve that succeeded
  EXPECT_EQ(tally.attempted, 152);
  EXPECT_EQ(tally.failed, 5);
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 5.0 / 152.0);
}

}  // namespace
}  // namespace perfbench
