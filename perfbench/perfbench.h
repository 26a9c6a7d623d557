// Shared pieces of the benchmark binary: command-line arguments, the result
// report, process measurements, and the simulator-layer probe used by every
// traced run that drives a simulated deployment.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sim/network.h"
#include "tracing.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where traced runs write their span files
};

/// One run's result: metrics by name, correctness gates, and free-form
/// facts run.py checks (the canonical cross-check numbers).
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::pair<std::string, std::string>> facts;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Gate(const std::string& name, bool ok) { gates.emplace_back(name, ok); }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  /// One JSON object on one line.
  std::string ToJson() const;
};

Report RunSimWorkload(const Args& args);
Report RunRealLoopback(const Args& args);

// --- Process measurements ---------------------------------------------------

double WallSeconds();  ///< steady clock, seconds
double PeakRssMb();
double Median(std::vector<double> v);
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// --- Simulator layers ---------------------------------------------------------

/// \brief Watches a serial simulated deployment from outside: counts
/// messages through `Network::set_message_tap` and tells the span recorder
/// which message a decorator call happened under.
///
/// The tap fires for a delivery immediately before the receiver's handler
/// runs, inside the same loop event. The loop profiler counts an event only
/// when it finishes, so a decorator call sees the profiler's event count
/// unchanged exactly while that handler is still running; any later event
/// (a timer, say) has moved it on.
class SimLayerProbe {
 public:
  SimLayerProbe(samya::sim::Network* net,
                const samya::obs::EventLoopProfiler* profiler,
                std::vector<samya::sim::NodeId> client_ids, SpanRecorder* rec);
  ~SimLayerProbe();
  SimLayerProbe(const SimLayerProbe&) = delete;
  SimLayerProbe& operator=(const SimLayerProbe&) = delete;

  uint64_t msgs_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t read_msgs = 0;        ///< global-snapshot read fan-out and replies
  uint64_t client_requests = 0;  ///< token requests sent by clients (attempts)

 private:
  static int32_t Context(const void* self);

  samya::sim::Network* net_;
  const samya::obs::EventLoopProfiler* profiler_;
  std::vector<samya::sim::NodeId> client_ids_;
  SpanRecorder* rec_;
  uint64_t delivery_event_ = UINT64_MAX;
  int32_t delivery_type_ = kTimerContext;
};

/// Outcome counters of a simulated run the layer metrics are normalised by.
struct SimCounts {
  uint64_t committed = 0;
  uint64_t committed_reads = 0;
  uint64_t attempted = 0;
  uint64_t events = 0;
  uint64_t proactive = 0;
  uint64_t reactive = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t queued = 0;
  int64_t frozen_us = 0;
  int sites = 0;
  int64_t span_us = 0;
};

/// Adds every simulator-side per-layer metric (sim, net, core, predict,
/// storage, client attempts) of one traced run.
void AddSimLayerMetrics(const SimCounts& c,
                        const samya::obs::EventLoopProfiler& profiler,
                        const SimLayerProbe& probe, const SpanRecorder& rec,
                        double untraced_run_s, Report* out);

/// The real-backend per-layer metrics, as zeros with a note, for workloads
/// that never start the real backend.
void AddRtLayersNotExercised(Report* out);

/// Writes the run's retained spans under `args.out_dir` (if set).
void WriteSpans(const Args& args, const SpanRecorder& rec);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
