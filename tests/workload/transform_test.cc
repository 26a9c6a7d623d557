#include "workload/transform.h"

#include <gtest/gtest.h>

#include "workload/azure_generator.h"

namespace samya::workload {
namespace {

DemandTrace TinyTrace() {
  std::vector<DemandInterval> data = {
      {10, 1}, {20, 2}, {30, 3}, {40, 4}, {50, 5}, {60, 6}};
  return DemandTrace(Minutes(5), std::move(data));
}

TEST(CompressTimeTest, ShrinksIntervalKeepsCounts) {
  auto trace = TinyTrace();
  auto fast = CompressTime(trace, 60);  // 5 min -> 5 s, as in §5.1.2
  EXPECT_EQ(fast.interval(), Seconds(5));
  EXPECT_EQ(fast.size(), trace.size());
  EXPECT_EQ(fast.TotalCreations(), trace.TotalCreations());
  EXPECT_EQ(fast.at(2).creations, 30);
  // 30 days compress to 12 hours.
  AzureTraceOptions o;
  o.days = 30;
  auto azure = GenerateAzureTrace(o);
  EXPECT_EQ(CompressTime(azure, 60).TotalDuration(), kHour * 12);
}

TEST(PhaseShiftTest, RotatesByWholeIntervals) {
  auto trace = TinyTrace();
  auto shifted = PhaseShift(trace, Minutes(10));  // two intervals
  EXPECT_EQ(shifted.at(2).creations, 10);
  EXPECT_EQ(shifted.at(3).creations, 20);
  EXPECT_EQ(shifted.at(0).creations, 50);  // wrapped around
  EXPECT_EQ(shifted.TotalCreations(), trace.TotalCreations());
}

TEST(PhaseShiftTest, NegativeShiftWraps) {
  auto trace = TinyTrace();
  auto shifted = PhaseShift(trace, -Minutes(5));
  EXPECT_EQ(shifted.at(0).creations, 20);
  EXPECT_EQ(shifted.at(5).creations, 10);
}

TEST(PhaseShiftTest, ZeroAndFullRotationAreIdentity) {
  auto trace = TinyTrace();
  for (Duration s : {Duration{0}, trace.TotalDuration()}) {
    auto shifted = PhaseShift(trace, s);
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(shifted.at(i).creations, trace.at(i).creations);
    }
  }
}

TEST(PhaseShiftTest, PreservesPeriodicityAcrossRegions) {
  // The §5.1.2 requirement: each region keeps the same periodic pattern,
  // only offset in time.
  AzureTraceOptions o;
  o.days = 4;
  auto base = GenerateAzureTrace(o);
  auto asia = PhaseShift(base, kHour * 16);
  // asia[t + 16h] == base[t]
  const size_t off = static_cast<size_t>(kHour * 16 / base.interval());
  for (size_t i = 0; i + off < base.size(); i += 97) {
    EXPECT_EQ(asia.at(i + off).creations, base.at(i).creations);
  }
}

TEST(TruncateTest, KeepsPrefix) {
  auto trace = TinyTrace();
  auto t = Truncate(trace, Minutes(12));  // 2 whole intervals fit
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.at(1).creations, 20);
  EXPECT_EQ(Truncate(trace, 0).size(), 0u);
  EXPECT_EQ(Truncate(trace, kHour).size(), trace.size());
}

TEST(ScaleCountsTest, ThinningIsApproximatelyProportional) {
  AzureTraceOptions o;
  o.days = 2;
  auto trace = GenerateAzureTrace(o);
  auto half = ScaleCounts(trace, 0.5, 3);
  const double ratio = static_cast<double>(half.TotalCreations()) /
                       static_cast<double>(trace.TotalCreations());
  EXPECT_NEAR(ratio, 0.5, 0.02);
  auto doubled = ScaleCounts(trace, 2.0, 3);
  const double ratio2 = static_cast<double>(doubled.TotalCreations()) /
                        static_cast<double>(trace.TotalCreations());
  EXPECT_NEAR(ratio2, 2.0, 0.05);
}

TEST(TraceTest, Stats) {
  auto trace = TinyTrace();
  EXPECT_EQ(trace.MeanDemand(), 35.0);
  EXPECT_EQ(trace.MaxDemand(), 60);
  EXPECT_EQ(trace.TotalDeletions(), 21);
}

}  // namespace
}  // namespace samya::workload
