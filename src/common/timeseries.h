#ifndef SAMYA_COMMON_TIMESERIES_H_
#define SAMYA_COMMON_TIMESERIES_H_

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace samya {

/// \brief Fixed-interval event counter used to record throughput-over-time
/// series (the line plots of Figs 3b-3f).
///
/// Events are bucketed by simulated time into `interval`-wide bins; the
/// resulting series can be queried per-bin or aggregated into coarser bins
/// for plotting.
class RateSeries {
 public:
  explicit RateSeries(Duration interval) : interval_(interval) {}

  /// Counts one event (e.g. a committed transaction) at time `t`.
  void Record(SimTime t, int64_t count = 1);

  Duration interval() const { return interval_; }
  size_t num_bins() const { return bins_.size(); }
  int64_t bin(size_t i) const { return i < bins_.size() ? bins_[i] : 0; }
  int64_t total() const;

  /// Mean events/second over [from, to) in simulated time.
  double MeanRate(SimTime from, SimTime to) const;

  /// Re-buckets into `coarse`-wide bins (coarse must be a multiple of the
  /// native interval); returns events/second per coarse bin.
  std::vector<double> Resample(Duration coarse) const;

 private:
  Duration interval_;
  std::vector<int64_t> bins_;
};

}  // namespace samya

#endif  // SAMYA_COMMON_TIMESERIES_H_
