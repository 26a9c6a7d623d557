#include "workload/transform.h"

#include "common/macros.h"
#include "common/random.h"

namespace samya::workload {

DemandTrace CompressTime(const DemandTrace& trace, int64_t factor) {
  SAMYA_CHECK_GT(factor, 0);
  SAMYA_CHECK_EQ(trace.interval() % factor, 0);
  return DemandTrace(trace.interval() / factor, trace.data());
}

DemandTrace PhaseShift(const DemandTrace& trace, Duration shift) {
  const size_t n = trace.size();
  if (n == 0) return trace;
  const Duration total = trace.TotalDuration();
  // Normalize into [0, total).
  Duration s = shift % total;
  if (s < 0) s += total;
  const size_t offset = static_cast<size_t>(s / trace.interval());

  std::vector<DemandInterval> rotated(n);
  for (size_t i = 0; i < n; ++i) {
    rotated[(i + offset) % n] = trace.at(i);
  }
  return DemandTrace(trace.interval(), std::move(rotated));
}

DemandTrace ScaleCounts(const DemandTrace& trace, double factor,
                        uint64_t seed) {
  SAMYA_CHECK_GE(factor, 0.0);
  Rng rng(seed);
  std::vector<DemandInterval> data(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    // Binomial-style thinning keeps counts integral and unbiased.
    auto thin = [&](int64_t count) {
      if (factor >= 1.0) {
        const double scaled = static_cast<double>(count) * factor;
        return rng.Poisson(scaled);
      }
      int64_t kept = 0;
      for (int64_t k = 0; k < count; ++k) kept += rng.Bernoulli(factor);
      return kept;
    };
    data[i].creations = thin(trace.at(i).creations);
    data[i].deletions = thin(trace.at(i).deletions);
  }
  return DemandTrace(trace.interval(), std::move(data));
}

}  // namespace samya::workload
