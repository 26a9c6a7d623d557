#ifndef SAMYA_HARNESS_INVARIANT_AUDITOR_H_
#define SAMYA_HARNESS_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/messages.h"
#include "core/types.h"

namespace samya::core {
class Site;
}

namespace samya::harness {

class Experiment;

/// Configuration of the continuous invariant auditor.
struct AuditOptions {
  bool enabled = false;

  /// Cadence of the periodic (clock-driven) checks. Event-driven checks
  /// (agreement) run at every decision/abort regardless.
  Duration period = Millis(500);

  bool check_conservation = true;  ///< Eq. 1 equality at quiescent instants
  bool check_constraint = true;    ///< acquires ledger never exceeds M_e
  bool check_agreement = true;     ///< no divergent decisions per instance
  bool check_liveness = true;      ///< progress + unfreeze after final heal

  /// The Eq. 1 *equality* is exact only at quiescent instants: every site
  /// alive and none frozen mid-redistribution (a crashed site's in-memory
  /// pool reads zero, and reallocations apply per-site, not atomically).
  /// The auditor therefore skips the equality check at non-quiescent ticks.
  /// Disabling this guard makes conservation fire during any crash window —
  /// the shrink acceptance test uses exactly that to manufacture a
  /// deterministic violation.
  bool require_quiescence = true;

  /// How long after `heal_time` the system gets to recover liveness.
  Duration liveness_grace = Seconds(8);

  /// When the fault schedule's terminal heal block runs (0 = no faults; the
  /// liveness checks are skipped).
  SimTime heal_time = 0;

  /// When offered load stops (the experiment `duration`). The
  /// progress-after-heal probe only arms when it lands before this.
  SimTime load_end = 0;
};

/// One invariant violation, timestamped in simulated time. `check` is one of
/// "conservation", "constraint", "non_negative", "agreement", "liveness",
/// "reconcile" (a site still in a disconnected epoch after the final heal).
struct AuditViolation {
  SimTime at = 0;
  std::string check;
  std::string detail;
};

/// Whether a run failed `check` ("" = any check): an auditor violation of
/// that name, or the history checker's failed verdict `history_failure`
/// ("linearizability" / "bounded_safety"; "" when the history passed or was
/// not checked). The one predicate behind ddmin and corpus replay verdicts.
bool FailsCheck(const std::vector<AuditViolation>& violations,
                const std::string& history_failure, const std::string& check);

/// \brief Continuous invariant auditor for Samya runs (§3.2 Eq. 1 and the
/// Theorem 1/2 agreement properties), hooked into the run itself.
///
/// Two kinds of hooks:
///  - event-driven: `Site::set_instance_observer` fires at every local
///    decision application / abort, where agreement is checked incrementally
///    across sites;
///  - clock-driven: a periodic tick checks the token-conservation equality
///    (at quiescent instants), the constraint bound, and non-negative pools.
///
/// Liveness-after-heal: a probe at `heal_time + liveness_grace` captures the
/// committed-operation count; `FinalAudit` (after the run drains) flags a
/// run whose tail made no progress, or left a site frozen since before the
/// grace cutoff.
///
/// The auditor schedules its ticks on the experiment's own event loop, so
/// audited runs stay deterministic — the tick cadence is part of the event
/// stream, not wall-clock sampling.
class InvariantAuditor {
 public:
  InvariantAuditor(Experiment* experiment, AuditOptions opts);

  /// Installs observers and schedules the periodic ticks. Call after
  /// `Experiment::Setup` and before the run starts.
  void Install();

  /// End-of-run checks (liveness, final conservation). Call after the run.
  void FinalAudit();

  const std::vector<AuditViolation>& violations() const { return violations_; }
  /// Violations past the kMaxViolations cap. Recorded instead of silently
  /// discarded so a flood is visible in the results JSON and summary.
  uint64_t dropped_violations() const { return dropped_violations_; }
  uint64_t ticks() const { return ticks_; }

 private:
  void Tick();
  void ScheduleNextTick();
  uint64_t CommittedOps() const;
  void CheckTokenInvariants(bool final_audit);
  void OnInstanceEvent(const core::Site& site, core::InstanceId instance,
                       const core::StateList* value);
  /// Records a violation (capped at kMaxViolations; overflow counts into
  /// `dropped_violations_`). `site` stamps the flight-recorder marker event;
  /// pass -1 for fleet-wide checks (stamped as site 0).
  void Report(const std::string& check, std::string detail, int32_t site = -1);
  bool Quiescent() const;

  Experiment* experiment_;
  AuditOptions opts_;
  bool any_mode_ = false;
  int64_t max_tokens_ = 0;
  SimTime stop_ticking_after_ = 0;

  // Agreement state: first-seen encoding + participant set of each decided
  // instance, the site that decided it, and (any-mode) which sites durably
  // aborted it while engaged.
  std::map<core::InstanceId, std::vector<uint8_t>> decided_encodings_;
  std::map<core::InstanceId, int32_t> first_decider_;
  std::map<core::InstanceId, std::vector<int32_t>> decided_participants_;
  std::set<std::pair<core::InstanceId, int32_t>> any_mode_aborts_;

  // Liveness probe state.
  bool probe_armed_ = false;
  bool probe_fired_ = false;
  uint64_t committed_at_probe_ = 0;

  uint64_t ticks_ = 0;
  uint64_t dropped_violations_ = 0;
  std::vector<AuditViolation> violations_;
  static constexpr size_t kMaxViolations = 64;  // stop flooding, keep first
};

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_INVARIANT_AUDITOR_H_
