#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/json.h"
#include "common/random.h"

namespace samya {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Percentile(50), 1000, 50);
  EXPECT_NEAR(h.Percentile(99), 1000, 50);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(HistogramTest, PercentilesWithinBucketError) {
  Histogram h;
  std::vector<int64_t> values;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    int64_t v = rng.UniformInt(1, 1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = static_cast<double>(
        values[static_cast<size_t>(p / 100.0 * (values.size() - 1))]);
    const double approx = h.Percentile(p);
    EXPECT_NEAR(approx, exact, exact * 0.06) << "p" << p;
  }
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.Record(i);
  for (int i = 1001; i <= 1100; ++i) b.Record(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1100);
  EXPECT_GT(a.Percentile(75), 900);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(123);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, MonotonePercentiles) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i)
    h.Record(static_cast<int64_t>(rng.Exponential(10000)));
  double prev = 0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Record(5000);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.Percentile(0), 0.0);
  EXPECT_EQ(empty.Percentile(100), 0.0);

  Histogram single;
  single.Record(500);
  // A single sample pins every percentile to that value: interpolation
  // clamps the bucket to [min, max] = [500, 500].
  EXPECT_DOUBLE_EQ(single.Percentile(0), 500.0);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 500.0);
  EXPECT_DOUBLE_EQ(single.Percentile(100), 500.0);
  // Out-of-range percentiles clamp rather than extrapolate.
  EXPECT_DOUBLE_EQ(single.Percentile(-10), 500.0);
  EXPECT_DOUBLE_EQ(single.Percentile(250), 500.0);

  Histogram two;
  two.Record(100);
  two.Record(10000);
  EXPECT_DOUBLE_EQ(two.Percentile(0), 100.0);
  EXPECT_DOUBLE_EQ(two.Percentile(100), 10000.0);
}

TEST(HistogramTest, ToJsonSnapshot) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const JsonValue j = h.ToJson();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.GetInt("count", -1), 1000);
  EXPECT_EQ(j.GetInt("min", -1), 1);
  EXPECT_EQ(j.GetInt("max", -1), 1000);
  EXPECT_NEAR(j.GetDouble("p50", 0), 500.0, 500.0 * 0.06);

  const JsonValue* cdf = j.Find("cdf");
  ASSERT_NE(cdf, nullptr);
  ASSERT_TRUE(cdf->is_array());
  ASSERT_FALSE(cdf->as_array().empty());
  // Cumulative counts are nondecreasing, bounds strictly increasing, and
  // the last row covers every sample with `le` clamped to the max.
  int64_t prev_le = -1;
  int64_t prev_count = 0;
  for (const JsonValue& row : cdf->as_array()) {
    EXPECT_GT(row.GetInt("le", -1), prev_le);
    EXPECT_GE(row.GetInt("count", -1), prev_count);
    prev_le = row.GetInt("le", -1);
    prev_count = row.GetInt("count", -1);
  }
  EXPECT_EQ(prev_count, 1000);
  EXPECT_EQ(prev_le, 1000);
}

TEST(HistogramTest, ToJsonEmpty) {
  const JsonValue j = Histogram().ToJson();
  EXPECT_EQ(j.GetInt("count", -1), 0);
  const JsonValue* cdf = j.Find("cdf");
  ASSERT_NE(cdf, nullptr);
  EXPECT_TRUE(cdf->as_array().empty());
}

TEST(HistogramTest, BucketForMatchesPlainLowerBound) {
  // BucketFor searches only the buckets of the value's bit width; it must
  // agree with a lower_bound over all bounds at every bound, bound +- 1,
  // 0, a negative value and INT64_MAX.
  std::vector<int64_t> bounds;
  for (size_t b = 0;; ++b) {
    bounds.push_back(Histogram::BucketUpper(b));
    if (bounds.back() == std::numeric_limits<int64_t>::max()) break;
  }
  ASSERT_GT(bounds.size(), 900u);
  auto plain = [&](int64_t v) {
    return static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  };
  std::vector<int64_t> values = {0, -1, -12345,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int64_t b : bounds) {
    values.push_back(b);
    values.push_back(b - 1);
    if (b < std::numeric_limits<int64_t>::max()) values.push_back(b + 1);
  }
  for (int w = 0; w < 63; ++w) {  // powers of two and their neighbours
    const int64_t p = int64_t{1} << w;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  for (int64_t v : values) {
    ASSERT_EQ(Histogram::BucketFor(v), plain(v)) << v;
  }
}

}  // namespace
}  // namespace samya
