#ifndef SAMYA_WORKLOAD_TRACE_H_
#define SAMYA_WORKLOAD_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace samya::workload {

/// One sampling interval of the VM workload: how many VMs were created and
/// how many were deleted (paper §5.1: creations/deletions per 5-minute
/// interval of the Azure trace).
struct DemandInterval {
  int64_t creations = 0;
  int64_t deletions = 0;
};

/// \brief A VM demand trace: a fixed sampling interval plus per-interval
/// creation/deletion counts. This is the in-memory form of the (synthetic)
/// Azure dataset every experiment consumes.
class DemandTrace {
 public:
  DemandTrace(Duration interval, std::vector<DemandInterval> data)
      : interval_(interval), data_(std::move(data)) {}

  Duration interval() const { return interval_; }
  size_t size() const { return data_.size(); }
  const DemandInterval& at(size_t i) const { return data_[i]; }
  const std::vector<DemandInterval>& data() const { return data_; }

  /// Total simulated duration covered by the trace.
  Duration TotalDuration() const {
    return interval_ * static_cast<Duration>(data_.size());
  }

  int64_t TotalCreations() const;
  int64_t TotalDeletions() const;

  /// Demand series (creations per interval) as doubles: the input to the
  /// Prediction Module and Table 2a.
  std::vector<double> CreationSeries() const;

  /// Summary stats of the creation series.
  double MeanDemand() const;
  int64_t MaxDemand() const;

 private:
  Duration interval_;
  std::vector<DemandInterval> data_;
};

}  // namespace samya::workload

#endif  // SAMYA_WORKLOAD_TRACE_H_
