#ifndef SAMYA_COMMON_HISTOGRAM_H_
#define SAMYA_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace samya {

class JsonValue;

/// \brief Log-bucketed latency histogram with percentile queries.
///
/// Values (microseconds in practice) are recorded into exponentially-spaced
/// buckets (~4.6% relative width), so p50..p99.9 queries are O(#buckets) and
/// memory is constant regardless of sample count. Mirrors the histograms used
/// by RocksDB statistics.
class Histogram {
 public:
  Histogram();

  void Record(int64_t value);
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const { return max_; }
  double mean() const;

  /// Value at the given percentile in [0, 100]. Returns 0 for empty
  /// histograms. Interpolates within the containing bucket.
  double Percentile(double p) const;

  double P50() const { return Percentile(50); }
  double P90() const { return Percentile(90); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

  /// One-line summary, latencies rendered in milliseconds.
  std::string ToString() const;

  /// Snapshot for the metrics export: count/mean/min/max/p50/p90/p99 plus a
  /// bucket CDF — an array of {"le": upper_bound, "count": cumulative} rows,
  /// one per non-empty bucket (empty histograms export an empty CDF).
  JsonValue ToJson() const;

  /// Index of the bucket that `value` is recorded in: the first whose upper
  /// bound is >= value (0 for value <= 0). Public for its exactness test.
  static size_t BucketFor(int64_t value);
  /// Inclusive upper bound of bucket `b`; the last bucket's is INT64_MAX.
  static int64_t BucketUpper(size_t b);

 private:
  static int64_t BucketLower(size_t b);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  long double sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace samya

#endif  // SAMYA_COMMON_HISTOGRAM_H_
