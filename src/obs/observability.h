#ifndef SAMYA_OBS_OBSERVABILITY_H_
#define SAMYA_OBS_OBSERVABILITY_H_

#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace samya::obs {

/// Which observability components a run should carry. Everything defaults to
/// off: the simulator then sees null component pointers and every
/// instrumentation site reduces to a single predictable branch.
struct ObsOptions {
  bool metrics = false;   ///< MetricsRegistry snapshot in the result
  bool profiler = false;  ///< event-loop wall-clock accounting
  /// Flight-recorder ring size (DESIGN.md §8); 0 = off. Sweeps keep
  /// `FlightRecorder::kDefaultCapacity`; full-run captures pass
  /// `FlightRecorder::kUnbounded`.
  size_t flight_capacity = 0;

  bool any() const { return metrics || profiler || flight_capacity > 0; }

  static ObsOptions All() {
    return ObsOptions{true, true, FlightRecorder::kUnbounded};
  }
};

/// \brief Bundle of the per-run observability components.
///
/// One per simulation, created by `Experiment::Setup` when any component is
/// requested and shared (by pointer) with the Network/SimEnvironment. Held
/// by `shared_ptr` in results so parallel sweeps can move results around
/// without copying event buffers.
class Observability {
 public:
  explicit Observability(const ObsOptions& options) : options_(options) {
    if (options.metrics) metrics_ = std::make_unique<MetricsRegistry>();
    if (options.profiler) profiler_ = std::make_unique<EventLoopProfiler>();
    if (options.flight_capacity > 0) {
      flight_ = std::make_unique<FlightRecorder>(options.flight_capacity);
    }
  }

  const ObsOptions& options() const { return options_; }

  /// Component accessors: null when the component is disabled.
  MetricsRegistry* metrics() const { return metrics_.get(); }
  EventLoopProfiler* profiler() const { return profiler_.get(); }
  FlightRecorder* flight() const { return flight_.get(); }

 private:
  ObsOptions options_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<EventLoopProfiler> profiler_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace samya::obs

#endif  // SAMYA_OBS_OBSERVABILITY_H_
