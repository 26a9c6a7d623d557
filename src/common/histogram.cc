#include "common/histogram.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/json.h"
#include "common/macros.h"

namespace samya {

namespace {

// Exponentially spaced bucket upper bounds: next = max(cur+1, cur*1.046),
// covering [0, ~9e18] in ~1000 buckets (~4.6% relative error).
struct BucketTable {
  std::vector<int64_t> bounds;
  /// by_width[w]: the bucket of the smallest value of bit width w, that is
  /// of 2^(w-1) (of 0 for w = 0); by_width[64] is the last bucket. The
  /// bucket of a value of width w lies in [by_width[w], by_width[w + 1]].
  std::array<size_t, 65> by_width{};
};

const BucketTable& Buckets() {
  static const BucketTable& table = *new BucketTable([] {
    BucketTable t;
    std::vector<int64_t>& b = t.bounds;
    int64_t cur = 0;
    while (cur < std::numeric_limits<int64_t>::max() / 2) {
      int64_t next = std::max(cur + 1, static_cast<int64_t>(
                                           static_cast<double>(cur) * 1.046));
      b.push_back(next);
      cur = next;
    }
    b.push_back(std::numeric_limits<int64_t>::max());
    for (int w = 0; w < 64; ++w) {
      const int64_t smallest = w == 0 ? 0 : int64_t{1} << (w - 1);
      t.by_width[static_cast<size_t>(w)] = static_cast<size_t>(
          std::lower_bound(b.begin(), b.end(), smallest) - b.begin());
    }
    t.by_width[64] = b.size() - 1;
    return t;
  }());
  return table;
}

}  // namespace

Histogram::Histogram() : buckets_(Buckets().bounds.size(), 0) {}

size_t Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;  // bounds[0] is 1
  // First bucket whose upper bound is >= value, searched only among the
  // ~16 buckets of this bit width. If every bound there is below the value,
  // lower_bound returns the range's end, by_width[w + 1]: the answer.
  const BucketTable& t = Buckets();
  const auto w =
      static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  const auto begin = t.bounds.begin();
  const auto it = std::lower_bound(
      begin + static_cast<std::ptrdiff_t>(t.by_width[w]),
      begin + static_cast<std::ptrdiff_t>(t.by_width[w + 1]), value);
  return static_cast<size_t>(it - begin);
}

int64_t Histogram::BucketLower(size_t b) {
  return b == 0 ? 0 : Buckets().bounds[b - 1];
}

int64_t Histogram::BucketUpper(size_t b) { return Buckets().bounds[b]; }

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  ++buckets_[BucketFor(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  SAMYA_CHECK_EQ(buckets_.size(), other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
}

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_ / count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const uint64_t next = cum + buckets_[b];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation within the bucket.
      const double lo = static_cast<double>(std::max(BucketLower(b), min_));
      const double hi = static_cast<double>(std::min(BucketUpper(b), max_));
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2fms p50=%.2fms p90=%.2fms p95=%.2fms "
                "p99=%.2fms max=%.2fms",
                static_cast<unsigned long long>(count_), mean() / 1000.0,
                P50() / 1000.0, P90() / 1000.0, P95() / 1000.0, P99() / 1000.0,
                static_cast<double>(max_) / 1000.0);
  return buf;
}

JsonValue Histogram::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("count", static_cast<int64_t>(count_));
  out.Set("mean", mean());
  out.Set("min", min());
  out.Set("max", max_);
  out.Set("p50", P50());
  out.Set("p90", P90());
  out.Set("p99", P99());
  JsonValue cdf = JsonValue::MakeArray();
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    cum += buckets_[b];
    JsonValue row = JsonValue::MakeObject();
    // Clamp the top bucket's bound to the observed max so the CDF stays
    // finite and plottable.
    row.Set("le", std::min(BucketUpper(b), max_));
    row.Set("count", static_cast<int64_t>(cum));
    cdf.Append(std::move(row));
  }
  out.Set("cdf", std::move(cdf));
  return out;
}

}  // namespace samya
