#include "common/timeseries.h"

#include <gtest/gtest.h>

namespace samya {
namespace {

TEST(RateSeriesTest, BucketsBySimTime) {
  RateSeries s(Seconds(1));
  s.Record(Millis(100));
  s.Record(Millis(900));
  s.Record(Millis(1500));
  EXPECT_EQ(s.bin(0), 2);
  EXPECT_EQ(s.bin(1), 1);
  EXPECT_EQ(s.bin(99), 0);
  EXPECT_EQ(s.total(), 3);
}

TEST(RateSeriesTest, CountedRecords) {
  RateSeries s(Seconds(1));
  s.Record(0, 10);
  s.Record(Millis(10), 5);
  EXPECT_EQ(s.bin(0), 15);
}

TEST(RateSeriesTest, MeanRateOverWindow) {
  RateSeries s(Seconds(1));
  for (int sec = 0; sec < 10; ++sec) s.Record(Seconds(sec), 100);
  EXPECT_DOUBLE_EQ(s.MeanRate(0, Seconds(10)), 100.0);
  EXPECT_DOUBLE_EQ(s.MeanRate(Seconds(5), Seconds(10)), 100.0);
  EXPECT_DOUBLE_EQ(s.MeanRate(Seconds(10), Seconds(20)), 0.0);
  EXPECT_DOUBLE_EQ(s.MeanRate(Seconds(5), Seconds(5)), 0.0);
}

TEST(RateSeriesTest, ResampleCoarse) {
  RateSeries s(Seconds(1));
  for (int sec = 0; sec < 60; ++sec) s.Record(Seconds(sec), sec < 30 ? 10 : 20);
  auto rates = s.Resample(Seconds(30));
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 20.0);
}

}  // namespace
}  // namespace samya
