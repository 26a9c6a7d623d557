#include "workload/request_stream.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace samya::workload {

std::vector<Request> GenerateRequests(const DemandTrace& trace,
                                      const RequestStreamOptions& opts) {
  SAMYA_CHECK_GE(opts.read_ratio, 0.0);
  SAMYA_CHECK_LT(opts.read_ratio, 1.0);
  Rng rng(opts.seed);

  const Duration iv = trace.interval();
  const auto in_horizon = [&](size_t i) {
    return opts.horizon <= 0 || static_cast<SimTime>(i) * iv < opts.horizon;
  };
  const auto writes = [&](size_t i) {
    return trace.at(i).creations + trace.at(i).deletions;
  };
  // reads / (writes + reads) = read_ratio
  const auto mean_reads = [&](size_t i) {
    return opts.read_ratio / (1 - opts.read_ratio) *
           static_cast<double>(writes(i));
  };

  // A script is held for the whole run, so reserve its expected size (with
  // four standard deviations of slack on the Poisson read count) instead of
  // doubling into as much as twice that.
  double expected_writes = 0, expected_reads = 0;
  for (size_t i = 0; i < trace.size() && in_horizon(i); ++i) {
    expected_writes += static_cast<double>(writes(i));
    if (opts.read_ratio > 0) expected_reads += mean_reads(i);
  }
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(expected_writes + expected_reads +
                                  4 * std::sqrt(expected_reads)));

  for (size_t i = 0; i < trace.size() && in_horizon(i); ++i) {
    const SimTime start = static_cast<SimTime>(i) * iv;
    auto emit = [&](Request::Type type, int64_t count) {
      for (int64_t k = 0; k < count; ++k) {
        Request r;
        r.at = start + rng.UniformInt(0, iv - 1);
        r.type = type;
        r.amount = 1;
        if (opts.horizon > 0 && r.at >= opts.horizon) continue;
        out.push_back(r);
      }
    };
    emit(Request::Type::kAcquire, trace.at(i).creations);
    emit(Request::Type::kRelease, trace.at(i).deletions);
    if (opts.read_ratio > 0) {
      emit(Request::Type::kRead, rng.Poisson(mean_reads(i)));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Request& a, const Request& b) { return a.at < b.at; });
  return out;
}

}  // namespace samya::workload
