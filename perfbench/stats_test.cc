// Unit tests of the benchmark's own helpers: percentiles and the tail rule, geometric
// mean, span self time, the max-SLO-rate selection with its backlog rule, and failure
// accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankPicksASample) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);    // rank ceil(2.5) = 3
  EXPECT_EQ(Percentile(v, 0.2), 1);    // rank 1
  EXPECT_EQ(Percentile(v, 0.21), 2);   // rank ceil(1.05) = 2
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

TEST(Percentile, WeightsCountAsRepeatedSamples) {
  Distribution d;
  d.Add(1.0, 98);
  d.Add(7.0, 2);
  EXPECT_EQ(d.count(), 100);
  EXPECT_EQ(d.Percentile(0.98), 1.0);
  EXPECT_EQ(d.Percentile(0.99), 7.0);
  Distribution e;
  e.Merge(d);
  e.Add(3.0, 0);  // zero weight adds nothing
  EXPECT_EQ(e.count(), 100);
  EXPECT_EQ(e.Percentile(0.99), 7.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  // 2000 samples support p99 (20 beyond it); 500 support only p98 (10 beyond).
  EXPECT_DOUBLE_EQ(Distribution::TailQuantileFor(0.99, 2000), 0.99);
  EXPECT_DOUBLE_EQ(Distribution::TailQuantileFor(0.99, 1000), 0.99);
  EXPECT_DOUBLE_EQ(Distribution::TailQuantileFor(0.99, 500), 0.98);
  // Too few samples for any tail: the median.
  EXPECT_DOUBLE_EQ(Distribution::TailQuantileFor(0.99, 15), 0.5);
  EXPECT_DOUBLE_EQ(Distribution::TailQuantileFor(0.99, 0), 0.5);
  Distribution d;
  for (int i = 1; i <= 500; ++i) {
    d.Add(i);
  }
  EXPECT_EQ(d.Tail(0.99), 490);  // p98 of 1..500; ten samples lie beyond it
}

TEST(GeoMean, OfPositiveValues) {
  EXPECT_NEAR(GeoMean({1, 4, 16}), 4.0, 1e-12);
  EXPECT_NEAR(GeoMean({2.5}), 2.5, 1e-12);
  EXPECT_EQ(GeoMean({}), 0.0);
  EXPECT_EQ(GeoMean({1.0, 0.0}), 0.0);
  EXPECT_EQ(GeoMean({1.0, -2.0}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({0.0, 1.0, 5.0}), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t;
  t.BeginAt("serving.Run", 7, 0.0);
  t.BeginAt("backend.Step", 7, 1.0);
  t.EndAt(3.0);
  t.BeginAt("backend.Step", 7, 4.0);
  t.BeginAt("inner.Work", 7, 4.5);
  t.EndAt(5.0);
  t.EndAt(6.0);
  t.EndAt(10.0);
  EXPECT_DOUBLE_EQ(t.TotalSeconds("serving."), 10.0);
  EXPECT_DOUBLE_EQ(t.SelfSeconds("serving."), 6.0);  // 10 - (2 + 2)
  EXPECT_DOUBLE_EQ(t.TotalSeconds("backend.Step"), 4.0);
  EXPECT_DOUBLE_EQ(t.SelfSeconds("backend.Step"), 3.5);
  EXPECT_EQ(t.Calls("backend."), 2);
  EXPECT_EQ(t.recorded(), 4);
  EXPECT_EQ(t.Calls("inner.Work"), 1);
  EXPECT_DOUBLE_EQ(t.SelfSeconds("inner.Work"), 0.5);
  EXPECT_NE(t.ChromeJson().find("\"parent\": 2"), std::string::npos);  // inner.Work's parent
}

TEST(Tracer, KeepsTotalsPastTheEventCap) {
  Tracer t(/*max_events=*/1);
  t.BeginAt("a.x", 0, 0.0);
  t.BeginAt("a.y", 0, 1.0);
  t.EndAt(2.0);
  t.EndAt(3.0);
  EXPECT_EQ(t.recorded(), 1);
  EXPECT_EQ(t.dropped(), 1);
  EXPECT_DOUBLE_EQ(t.SelfSeconds("a.x"), 2.0);
  EXPECT_DOUBLE_EQ(t.SelfSeconds("a.y"), 1.0);
}

TEST(MaxSloRate, HighestRateMeetingSloWithoutGrowingBacklog) {
  std::vector<RateLevel> levels = {
      {100.0, 200, 200, 3, 2, 0},   // meets
      {200.0, 200, 199, 4, 4, 0},   // 99.5% and flat backlog: meets
      {400.0, 200, 150, 5, 40, 0},  // misses
  };
  EXPECT_EQ(MaxSloRate(levels), 200.0);
  levels[1].backlog_last = 5;  // backlog grew: the rate no longer counts
  EXPECT_EQ(MaxSloRate(levels), 100.0);
  levels[1].slack = 1;  // ... unless the growth is within the slack
  EXPECT_EQ(MaxSloRate(levels), 200.0);
  levels[1] = {200.0, 100, 98, 4, 4, 0};  // 98% < 99%
  EXPECT_EQ(MaxSloRate(levels), 100.0);
  levels[1] = {200.0, 200, 200, 30, 30, 4};  // flat, but the backlog is already high ...
  EXPECT_EQ(MaxSloRate(levels), 200.0);
  levels[1].cap = 8;  // ... and above the cap: past the knee
  EXPECT_EQ(MaxSloRate(levels), 100.0);
  levels[0].slo_total = 0;  // no SLO-bound request: nothing to sustain
  EXPECT_EQ(MaxSloRate(levels), 0.0);
}

TEST(MaxSloRate, BacklogCountsArrivedAndUnfinished) {
  const std::vector<double> arrival = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> done = {0.5, 4.0, -1.0, 3.5};  // -1: never completed
  EXPECT_EQ(Backlog(arrival, done, 0.0), 1);
  EXPECT_EQ(Backlog(arrival, done, 0.6), 0);
  EXPECT_EQ(Backlog(arrival, done, 2.0), 2);
  EXPECT_EQ(Backlog(arrival, done, 3.0), 3);
  EXPECT_EQ(Backlog(arrival, done, 5.0), 1);
  // Mean over the samples at times[1..3): (2 + 3) / 2.
  EXPECT_DOUBLE_EQ(MeanBacklog(arrival, done, {0.0, 2.0, 3.0}, 1, 3), 2.5);
  EXPECT_DOUBLE_EQ(MeanBacklog(arrival, done, {0.0}, 0, 0), 0.0);
}

TEST(FailureTally, CountsFailuresAgainstAttempts) {
  FailureTally f;
  EXPECT_FALSE(f.ok());  // nothing attempted is not a pass
  f.Check(true, "fine");
  f.Attempt(3);
  EXPECT_TRUE(f.ok());
  f.Check(false, "checksum mismatch");
  f.Fail("error result");
  EXPECT_EQ(f.attempted(), 5);
  EXPECT_EQ(f.failed(), 2);
  EXPECT_FALSE(f.ok());
  ASSERT_EQ(f.reasons().size(), 2u);
  EXPECT_EQ(f.reasons()[0], "checksum mismatch");
}

TEST(TokenChecksum, IsFnv1a) {
  EXPECT_EQ(TokenChecksum({}), 14695981039346656037ull);
  EXPECT_NE(TokenChecksum({1, 2}), TokenChecksum({2, 1}));
}

}  // namespace
}  // namespace perfbench
