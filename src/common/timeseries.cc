#include "common/timeseries.h"

#include <numeric>

#include "common/macros.h"

namespace samya {

void RateSeries::Record(SimTime t, int64_t count) {
  SAMYA_CHECK_GE(t, 0);
  const size_t bin = static_cast<size_t>(t / interval_);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0);
  bins_[bin] += count;
}

int64_t RateSeries::total() const {
  return std::accumulate(bins_.begin(), bins_.end(), int64_t{0});
}

double RateSeries::MeanRate(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  int64_t events = 0;
  const size_t lo = static_cast<size_t>(from / interval_);
  const size_t hi = static_cast<size_t>((to + interval_ - 1) / interval_);
  for (size_t i = lo; i < hi && i < bins_.size(); ++i) events += bins_[i];
  return static_cast<double>(events) / ToSeconds(to - from);
}

std::vector<double> RateSeries::Resample(Duration coarse) const {
  SAMYA_CHECK_GT(coarse, 0);
  SAMYA_CHECK_EQ(coarse % interval_, 0);
  const size_t k = static_cast<size_t>(coarse / interval_);
  std::vector<double> out;
  for (size_t i = 0; i < bins_.size(); i += k) {
    int64_t sum = 0;
    for (size_t j = i; j < i + k && j < bins_.size(); ++j) sum += bins_[j];
    out.push_back(static_cast<double>(sum) / ToSeconds(coarse));
  }
  return out;
}

}  // namespace samya
