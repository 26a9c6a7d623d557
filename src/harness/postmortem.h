#ifndef SAMYA_HARNESS_POSTMORTEM_H_
#define SAMYA_HARNESS_POSTMORTEM_H_

#include <cstdint>
#include <map>
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
/// Post-mortem bundles and the views derived from their flight history
/// (DESIGN.md §8).
///
/// A bundle is the self-contained record of one run: the reproducer
/// (chaos/explore case JSON), the auditor's violation list, the run's
/// result snapshot (`BuildMetricsSnapshot`: counters, client latency, loop
/// profile, flight summary), and the flight-recorder history.
/// `samya_search` and the corpus replay test dump one next to every
/// violating case ("<case>_postmortem.json"); `samya_postmortem capture`
/// writes one for a clean case or a whole experiment. Spans (Avantan
/// rounds, phases, request waits, disconnected epochs) and message flights
/// are derived from the flight events here, once, for both the report and
/// the Perfetto export.

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
  /// `BuildMetricsSnapshot` of the run; null when obs was off.
  JsonValue metrics;
  /// `FlightRecorder::ToJson` ("samya-flight-v1"); null when unarmed.
  JsonValue flight;

  JsonValue ToJson() const;
  static Result<PostmortemBundle> FromJson(const JsonValue& v);
};

/// Builds a bundle from a finished run. Takes the flight section and the
/// `BuildMetricsSnapshot` section when `r.obs` is present; `reproducer` is
/// stored verbatim (pass `JsonValue()` for none).
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

/// A sim-time interval on one node, derived from flight events.
struct FlightSpan {
  /// "avantan.round" (a leader's instance), "avantan.engage" (a cohort's),
  /// "election" / "accept" / "recovery" (phases), "request.queued" /
  /// "request.read" (waits), "disconnected" / "reconcile" (epochs).
  const char* name = "";
  const char* category = "";  ///< "round" | "phase" | "request" | "epoch"
  int32_t site = -1;
  int64_t key = 0;  ///< instance id, request id, or epoch
  SimTime start = 0;
  SimTime end = 0;  ///< the run's end for spans still open then
};

enum class MessageFate : uint8_t { kInFlight, kDelivered, kDropped };

/// One message copy: a send event and, when retained, its paired delivery.
struct MessageFlight {
  SimTime sent = 0;
  SimTime arrived = -1;  ///< delivery or drop-at-delivery time; -1 if none
  int32_t from = -1;
  int32_t to = -1;
  uint32_t type = 0;
  int64_t bytes = 0;
  MessageFate fate = MessageFate::kInFlight;
};

struct FlightViews {
  std::vector<FlightSpan> spans;        ///< in start order
  std::vector<MessageFlight> messages;  ///< in send order
  std::map<int32_t, std::string> nodes;
  SimTime end = 0;
};

/// Derives spans and message flights from canonical protocol events.
///  - Rounds and phases are keyed by (site, instance) from `kPhase` events:
///    an engage that an election_start of the same instance follows at the
///    same (site, at) opens a leader round, any other engage a cohort's
///    engage span; finish and abort close both, decided closes the phase.
///  - A delivery pairs with the send at (site=from, seq=c); deliveries with
///    c < 0 (real backend) or whose send was evicted stay unpaired.
///  - A request wait runs from its kRequest begin to its answer.
/// Spans still open at `end` close there (end of the last event if 0).
FlightViews DeriveFlightViews(const std::vector<obs::FlightEvent>& evs,
                              SimTime end);

/// `DeriveFlightViews` over `evs`, the bundle's decoded events
/// (`FlightEventsOf`), with the bundle's node names and run end.
FlightViews FlightViewsOf(const PostmortemBundle& b,
                          const std::vector<obs::FlightEvent>& evs);

/// The report's derived tables: span latency by name, the slowest rounds
/// with their phases, per-type message counts and flight times, and
/// Avantan messages per leader round (the Table 3 view).
std::string RenderFlightViews(const FlightViews& v);

/// Chrome trace-event export, loadable in ui.perfetto.dev: one process per
/// node, spans as async "b"/"e" pairs keyed by instance/request id, message
/// flights as "X" events on the sender, every other flight event as an
/// instant (violation markers on their own track).
Status ExportFlightChromeTrace(const PostmortemBundle& b,
                               const std::string& path);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_POSTMORTEM_H_
