#ifndef SAMYA_HARNESS_POSTMORTEM_H_
#define SAMYA_HARNESS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/chaos.h"
#include "harness/experiment.h"
#include "harness/explore.h"
#include "obs/flight_recorder.h"

namespace samya::harness {

/// \file
/// Post-mortem bundles (DESIGN.md §13).
///
/// A bundle is the self-contained forensic record of one violating run:
/// the reproducer (chaos/explore case JSON), the auditor's violation list,
/// the metrics snapshot, and the flight-recorder tail. `samya_search` and
/// the corpus replay test dump one next to every violating case
/// ("<case>_postmortem.json"); `tools/samya_postmortem` renders timelines,
/// diffs two bundles to the first divergent protocol event, and exports to
/// Perfetto.

/// Format "samya-postmortem-v1". All sections are optional except
/// `failed_check`; absent sections load as JSON null / empty.
struct PostmortemBundle {
  /// Producing tool ("samya_search", "samya_postmortem", "corpus_replay").
  std::string source;
  /// First failed check ("conservation", "linearizability", ...).
  std::string failed_check;
  /// The reproducer case document (samya-chaos-case-v1 or
  /// samya-explore-case-v1), verbatim; null when the run had none.
  JsonValue reproducer;
  std::vector<AuditViolation> violations;
  uint64_t dropped_violations = 0;  ///< past the auditor's cap
  /// `BuildMetricsSnapshot` of the violating run; null when obs was off.
  JsonValue metrics;
  /// `FlightRecorder::ToJson` ("samya-flight-v1"); null when unarmed.
  JsonValue flight;

  JsonValue ToJson() const;
  static Result<PostmortemBundle> FromJson(const JsonValue& v);
};

/// Builds a bundle from a finished run. Pulls the flight section and
/// metrics snapshot out of `r.obs` when present; `reproducer` is stored
/// verbatim (pass `JsonValue()` for none).
PostmortemBundle MakePostmortem(const std::string& source,
                                const std::string& failed_check,
                                JsonValue reproducer,
                                const ExperimentResult& r);

/// Same, from a schedule-exploration run. No metrics section (explore runs
/// don't build snapshots); the history checker's verdict rides as an extra
/// "linearizability"-check violation when the checker failed.
PostmortemBundle MakePostmortem(const std::string& source,
                                JsonValue reproducer,
                                const ExploreRunResult& r);

/// Writes `b.ToJson()` to `path` (`JsonDump` indent 2 + trailing newline,
/// the corpus convention); loading and re-writing is byte-identical.
Status WritePostmortem(const PostmortemBundle& b, const std::string& path);
Result<PostmortemBundle> LoadPostmortem(const std::string& path);

/// Verdict of replaying one corpus case file (harness/chaos.h or
/// harness/explore.h format), with the run's post-mortem bundle.
struct CaseReplay {
  const char* kind = "";        ///< "chaos" or "explore"
  std::string expected_check;   ///< the case's `violation_check` ("" = clean)
  std::string failed_check;     ///< this run's first failed check ("" = clean)
  /// The run fails `expected_check`, or is clean when that is empty.
  bool as_recorded = false;
  uint64_t events_executed = 0;
  /// Work the run did: committed client requests (chaos) or recorded
  /// history ops (explore).
  uint64_t ops = 0;
  std::vector<sim::ChoicePoint> decisions;  ///< oracle trace; explore only
  /// `reproducer` is the parsed case re-serialized; `failed_check` is the
  /// case's recorded check when it names one.
  PostmortemBundle bundle;
};

/// Loads a case file, dispatches on its "format" field
/// ("samya-chaos-case-v1" or "samya-explore-case-v1") and runs it with the
/// flight recorder armed. `source` names the caller in the bundle. Fails
/// only when the file cannot be read or parsed as a case.
Result<CaseReplay> ReplayCaseFile(const std::string& path,
                                  const std::string& source);

/// The canonical protocol events of the bundle's flight section, decoded.
/// Empty when the bundle has no flight section; an event with an unknown
/// kind name fails the whole decode (corrupt bundle).
Result<std::vector<obs::FlightEvent>> FlightEventsOf(const PostmortemBundle& b);

/// The flight section's `complete_from` (0 when absent): the earliest time
/// from which the retained history is gap-free.
SimTime FlightCompleteFrom(const PostmortemBundle& b);

/// One human line: "t=12345us site=2 phase/engage a=7 b=993". Zero-valued
/// trailing payload fields are omitted.
std::string FormatFlightEvent(const obs::FlightEvent& ev);

/// First-divergence comparison of two bundles' canonical protocol
/// histories. Both sides are first trimmed to max(complete_from) so a
/// wrapped ring on one side never manufactures a phantom divergence.
struct PostmortemDiff {
  bool comparable = false;  ///< both bundles carried a flight section
  SimTime compare_from = 0;  ///< events before this were trimmed
  uint64_t compared = 0;     ///< matching events before divergence (or end)
  bool diverged = false;
  /// Index of the first divergent position in the trimmed streams, and the
  /// two events there (missing side rendered as "<end of history>").
  uint64_t divergence_index = 0;
  std::string event_a;
  std::string event_b;
};
PostmortemDiff DiffPostmortems(const PostmortemBundle& a,
                               const PostmortemBundle& b);

/// Chrome trace-event export of the bundle's flight history (instant events
/// per site process, violation markers on their own track), loadable in
/// Perfetto like `WriteChromeTrace` output.
Status ExportFlightChromeTrace(const PostmortemBundle& b,
                               const std::string& path);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_POSTMORTEM_H_
