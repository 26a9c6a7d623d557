#ifndef SAMYA_HARNESS_REAL_HARNESS_H_
#define SAMYA_HARNESS_REAL_HARNESS_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "core/site.h"
#include "harness/workload_client.h"
#include "rt/real_cluster.h"
#include "workload/request_stream.h"

namespace samya::harness {

/// One Fig 3b-shaped comparison run: the same deployment (sites + app
/// managers + one open-loop client per region, the `Experiment::SetupSamya`
/// node-id layout) driven by the same deterministic scripts on the
/// simulator and on the real thread/socket backend (DESIGN.md §14).
struct RealHarnessOptions {
  int num_sites = 5;
  int64_t max_tokens = 5000;
  /// Scripted open-loop load: each region issues this many requests, one
  /// every `spacing`, a `release_ratio` fraction of them releases.
  int requests_per_region = 40;
  Duration spacing = Millis(25);
  double release_ratio = 0.35;
  uint64_t seed = 42;

  /// Real-backend netem shaping. The model defaults to the paper's 5-region
  /// RTT matrix — the same distribution the simulator samples. The netem
  /// seed is overridden with `seed` so one knob steers both backends.
  rt::NetemConfig netem;

  /// Site timers/knobs shared by both backends. Prediction is forced off:
  /// the comparison exercises the reactive protocol path, which needs no
  /// training trace.
  core::SiteOptions site_template;

  Duration client_timeout = Seconds(3);
  int client_attempts = 2;

  /// Extra run time past the last scripted request before the quiesce poll
  /// starts (real backend) / before the built-in drain (simulator).
  Duration drain = Seconds(2);
};

/// Measurements of one backend's run, shaped so the two sides print and
/// gate against each other directly (tools/samya_real, rt smoke test).
struct BackendRun {
  std::string backend;  ///< "sim" or "real"
  ClientStats aggregate;

  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t frames_rejected = 0;  ///< wire-framing rejects; real backend only

  /// messages_sent / committed client txns — the protocol-cost figure the
  /// 5% sim-vs-real gate compares. Both backends count `messages_sent` at
  /// the same point (every Send from an alive node, before loss).
  double messages_per_request = 0.0;

  // Eq. 1 conservation at end of (drained) run.
  int64_t total_site_tokens = 0;
  int64_t server_net_acquires = 0;
  bool conservation_exact = false;

  /// Simulator: continuous InvariantAuditor violations. Real backend:
  /// failed post-run checks (conservation, non-negative pools, ledger
  /// within M_e) — the auditable subset of the auditor's invariants.
  uint64_t violations = 0;

  double wall_seconds = 0.0;

  JsonValue flight;  ///< flight-recorder dump
};

/// \brief Runs the canonical workload on either backend and reports
/// comparable measurements. Scripts are generated once (deterministically
/// from `seed`) and shared, so any sim/real divergence is backend
/// behaviour, not workload noise.
class RealHarness {
 public:
  explicit RealHarness(RealHarnessOptions opts);

  const std::vector<std::vector<workload::Request>>& scripts() const {
    return scripts_;
  }
  /// Timestamp of the last scripted request.
  Duration horizon() const { return horizon_; }

  /// Simulator run via harness::Experiment (scripts_override), with the
  /// continuous invariant auditor and the flight recorder on.
  BackendRun RunSim();

  /// Real-backend run on rt::RealCluster: same node-id layout, same
  /// scripts, paper latency matrix via in-process netem. Blocks for the
  /// wall-clock duration of the workload plus drain/quiesce.
  BackendRun RunReal();

 private:
  RealHarnessOptions opts_;
  std::vector<std::vector<workload::Request>> scripts_;
  Duration horizon_ = 0;
};

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_REAL_HARNESS_H_
