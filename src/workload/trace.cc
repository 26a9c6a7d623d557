#include "workload/trace.h"

#include <algorithm>

namespace samya::workload {

int64_t DemandTrace::TotalCreations() const {
  int64_t n = 0;
  for (const auto& d : data_) n += d.creations;
  return n;
}

int64_t DemandTrace::TotalDeletions() const {
  int64_t n = 0;
  for (const auto& d : data_) n += d.deletions;
  return n;
}

std::vector<double> DemandTrace::CreationSeries() const {
  std::vector<double> s;
  s.reserve(data_.size());
  for (const auto& d : data_) s.push_back(static_cast<double>(d.creations));
  return s;
}

double DemandTrace::MeanDemand() const {
  if (data_.empty()) return 0.0;
  return static_cast<double>(TotalCreations()) /
         static_cast<double>(data_.size());
}

int64_t DemandTrace::MaxDemand() const {
  int64_t m = 0;
  for (const auto& d : data_) m = std::max(m, d.creations);
  return m;
}

}  // namespace samya::workload
