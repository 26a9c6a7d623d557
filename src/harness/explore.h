#ifndef SAMYA_HARNESS_EXPLORE_H_
#define SAMYA_HARNESS_EXPLORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/lin_check.h"
#include "sim/schedule_oracle.h"
#include "workload/request_stream.h"

namespace samya::harness {

/// Which schedule oracle drives a run. `kReplay` replays
/// `ExploreCase::choices` — the corpus format, and the DFS/ddmin workhorse.
enum class SchedulerKind { kFifo, kRandom, kPct, kReplay };

/// Wire-format name of a SchedulerKind ("pct"); stable — corpus files
/// depend on it. Inverse: `SchedulerKindFromId`.
const char* SchedulerIdName(SchedulerKind kind);
bool SchedulerKindFromId(const std::string& id, SchedulerKind* out);

/// \brief One schedule-exploration configuration: a small fixed workload, a
/// scheduler, and (for replay) the recorded choice trace. Fully
/// serializable, so a violating schedule commits to
/// `tests/integration/schedule_corpus/` and replays bit-identically.
struct ExploreCase {
  SystemKind system = SystemKind::kSamyaMajority;
  SchedulerKind scheduler = SchedulerKind::kReplay;
  uint64_t seed = 1;
  int num_sites = 3;
  /// Deliberately not divisible by 3: the M % n allocation remainder is
  /// live, so the "alloc_remainder" mutation is observable.
  int64_t max_tokens = 31;
  Duration duration = Seconds(3);  ///< load window (run drains 10s more)
  Duration window = Millis(5);     ///< oracle commutativity window
  int pct_depth = 3;               ///< PCT priority-change points
  /// Per-region client scripts (region r plays scripts[r]; missing entries
  /// idle). Empty => `DefaultExploreScripts(max_tokens)`.
  std::vector<std::vector<workload::Request>> scripts;
  /// Recorded oracle choices; the schedule under kReplay, and what ddmin
  /// minimizes. Ignored by the other schedulers.
  std::vector<uint32_t> choices;
  /// Test-only mutation armed for the run ("" = none); see
  /// common/testonly_mutation.h. Mutations are process-global: cases with
  /// one set must not run concurrently with other runs.
  std::string mutation;
  /// Provenance: the check this case violates ("" = regression guard
  /// expected to pass clean).
  std::string violation_check;
  std::string note;

  JsonValue ToJson() const;
  static Result<ExploreCase> FromJson(const JsonValue& v);
};

/// The standard small contention scenario: three active regions issuing a
/// handful of acquires/releases/reads against 3 sites, sized so the second
/// burst overdraws a local pool and forces 1–2 reactive Avantan rounds.
std::vector<std::vector<workload::Request>> DefaultExploreScripts(
    int64_t max_tokens);

/// Per-system history-check preset (lin_check.h). Returns false when the
/// system has no checkable token spec (kSamyaNoConstraint promises nothing).
bool CheckPresetFor(SystemKind kind, int64_t max_tokens, CheckOptions* out);

/// Everything one explored run yields: the auditor verdict, the history
/// checker verdict, and the decision trace (replayable via kReplay).
struct ExploreRunResult {
  CheckResult check;
  std::vector<AuditViolation> violations;
  uint64_t dropped_violations = 0;  ///< past the auditor's cap
  std::vector<sim::ChoicePoint> trace;
  std::vector<uint32_t> choices;  ///< trace projected to chosen indices
  uint64_t ops_recorded = 0;
  uint64_t events_executed = 0;
  /// The run's observability bundle (always carries the flight recorder —
  /// MakeExploreOptions arms it); feeds the post-mortem dump on violation.
  std::shared_ptr<obs::Observability> obs;
  /// The history checker's failed verdict, "linearizability" or
  /// "bounded_safety"; empty when the history passed or was not checked.
  std::string history_failure;
  /// First failed check: an auditor check name ("conservation", ...), else
  /// `history_failure`. Empty when the run was clean.
  std::string failed_check;

  bool violated() const { return !failed_check.empty(); }
};

/// Runs one case end to end: builds the oracle (unless `oracle` overrides
/// it), arms the mutation, runs the experiment with the auditor + history
/// recorder attached, then checks the history against the system's preset.
ExploreRunResult RunExploreCase(const ExploreCase& c,
                                sim::ScheduleOracle* oracle = nullptr);

/// Bounded exhaustive search knobs. `max_depth` caps how many decision
/// points may deviate from FIFO (the tree is complete up to that depth);
/// `max_runs` caps total re-executions.
struct DfsOptions {
  uint32_t max_depth = 10;
  uint64_t max_runs = 2000;
  /// Prune a run whose (choice, state-hash) signature was already seen —
  /// distinct prefixes that converge to the same interleaving share a
  /// subtree, so re-expanding it is pure waste.
  bool prune_states = true;
};

struct DfsStats {
  uint64_t runs = 0;
  uint64_t states = 0;  ///< distinct decision-context hashes encountered
  uint64_t prunes = 0;
  uint32_t deepest_branch = 0;  ///< deepest decision index branched on
  /// The frontier drained before `max_runs`: every schedule within
  /// `max_depth` deviations was covered (modulo state pruning).
  bool exhausted = false;
  uint64_t violations = 0;           ///< runs that failed a check
  std::vector<uint32_t> failing_choices;  ///< first violating schedule
  std::string failed_check;
};

/// \brief Bounded exhaustive DFS over the schedule space of `base`.
///
/// Stateless search by re-execution: each frontier entry is a choice prefix,
/// replayed with FIFO past its end; the run's recorded trace then spawns one
/// child per untaken candidate at every decision index in
/// [prefix length, max_depth). Each bounded choice sequence is visited
/// exactly once; revisited run signatures are pruned. Small configs
/// (3 sites, 1–2 Avantan rounds) exhaust within a few hundred runs.
DfsStats ExploreDfs(const ExploreCase& base, const DfsOptions& dopts);

/// ddmin (harness/ddmin.h) of a violating choice trace: replays the case
/// with subsets of `choices`, keeping a subset iff it still fails
/// `c.violation_check` (any check when empty). Returns the case pinned to
/// kReplay with the minimized trace; `runs_used` reports the spend against
/// `max_runs`.
ExploreCase ShrinkChoices(const ExploreCase& c, int max_runs = 300,
                          int* runs_used = nullptr);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_EXPLORE_H_
