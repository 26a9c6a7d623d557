#ifndef SAMYA_HARNESS_CHAOS_H_
#define SAMYA_HARNESS_CHAOS_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "sim/nemesis.h"

namespace samya::harness {

/// \brief One chaos configuration: a system + workload seed + fault
/// schedule. Fully serializable, so a violating case commits to the corpus
/// and replays bit-identically on any machine.
struct ChaosCase {
  SystemKind system = SystemKind::kSamyaMajority;
  uint64_t seed = 1;
  int num_sites = 5;
  int64_t max_tokens = 5000;
  Duration duration = Seconds(50);  ///< load window (run drains 10s more)
  double intensity = 1.0;           ///< nemesis intensity that bred `schedule`
  /// Baseline site-isolation waves fed to the nemesis (kIsolateSite island
  /// cuts; scaled by `intensity` like every fault class). 0 — the default,
  /// and the implied value for corpus files written before the op family
  /// existed — generates byte-identical schedules to the seed tool.
  double isolate = 0.0;
  /// Arms Samya's disconnected-site mode (SiteOptions.enable_disconnected_
  /// mode) for this case, so isolated sites keep serving from their local
  /// pool behind a durable op-log instead of stalling.
  bool disconnected_mode = false;
  sim::FaultSchedule schedule;

  /// Whether the auditor's quiescence guard was armed when this case was
  /// found. Guard-off cases (used by the shrink pipeline to manufacture
  /// deterministic conservation violations) must replay guard-off too.
  bool quiescence_guard = true;

  /// Provenance, for humans reading the corpus: what the case reproduces
  /// ("" when it is a regression guard expected to pass clean).
  std::string violation_check;
  std::string note;

  JsonValue ToJson() const;
  static Result<ChaosCase> FromJson(const JsonValue& v);
};

/// Wire-format name of a SystemKind ("samya_majority"); inverse of
/// `SystemKindFromId`. Stable across releases — corpus files depend on it.
const char* SystemIdName(SystemKind kind);
bool SystemKindFromId(const std::string& id, SystemKind* out);

/// Builds the full ExperimentOptions for a chaos run: applies the fault
/// schedule, enables the auditor (with `audit` as the template; heal_time /
/// load_end are derived from the case), and pins workload knobs.
ExperimentOptions MakeChaosOptions(const ChaosCase& c, AuditOptions audit);

/// Runs one case to completion (Setup + Run) and returns the result, whose
/// `violations` field is the verdict.
ExperimentResult RunChaosCase(const ChaosCase& c, const AuditOptions& audit);

/// Derives the standard nemesis schedule for (system, seed, intensity) —
/// the exact generator `samya_search chaos` sweeps. The nemesis targets nodes
/// 0..num_sites-1, so the site count must be fixed before generation.
/// `isolate` > 0 adds site-isolation waves: each wave cuts one site's whole
/// *island* (the site plus its region's app manager and client, so load
/// keeps arriving at the cut-off site) from the rest of the cluster.
/// `disconnected_mode` arms the §12 degraded mode on Samya sites.
ChaosCase MakeNemesisCase(SystemKind system, uint64_t seed, double intensity,
                          int num_sites = 5, double isolate = 0.0,
                          bool disconnected_mode = false);

/// \brief ddmin (harness/ddmin.h) of a violating fault schedule.
///
/// Re-runs the case with subsets of the schedule's ops, keeping a subset
/// only if it still fails `c.violation_check` (e.g. "conservation"; any
/// check when empty). Every run is a fresh single-threaded simulation, so
/// the result is deterministic. `max_runs` bounds the search; `runs_used`
/// (optional) reports the spend. Returns the case with the minimized
/// schedule (1-minimal w.r.t. op removal when the budget sufficed).
ChaosCase ShrinkCase(const ChaosCase& c, const AuditOptions& audit,
                     int max_runs = 300, int* runs_used = nullptr);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_CHAOS_H_
