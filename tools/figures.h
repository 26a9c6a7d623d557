#ifndef SAMYA_TOOLS_FIGURES_H_
#define SAMYA_TOOLS_FIGURES_H_

// The paper's tables and figures (§5), and the comparisons beyond them
// (DESIGN.md §12), as one table of entries: each names the experiments it
// needs, prints the rows of its artifact from their results, and checks
// its claim with a verdict predicate.
// tools/samya_figures is the command-line driver over this table.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace samya::figures {

enum class Outcome {
  kPass,           ///< the paper's claim holds on our measurement
  kFail,           ///< a claim we make (the paper's, or ours) broke
  kNotReproduced,  ///< the paper's claim does not hold, but ours does
};

const char* OutcomeName(Outcome outcome);

/// A figure's verdict and the measured numbers it rests on.
struct Verdict {
  Outcome outcome;
  std::string measured;
};

/// Messages one run sent, by type (filled by the message-tap hook only).
struct MessageTally {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Site 0's disconnected-mode counters at the end of a run: a Samya
/// site's epochs, writes served while cut off, op-log traffic and
/// reconciles, or a BoundedCounter site's disconnected windows, committed
/// writes and reconciles (zero for the other systems).
struct SiteZeroStats {
  uint64_t disconnected_epochs = 0;
  uint64_t disconnected_served = 0;
  uint64_t oplog_appends = 0;
  uint64_t oplog_replayed = 0;
  uint64_t reconciles = 0;
};

/// What one experiment produced.
struct RunOutput {
  harness::ExperimentResult result;
  std::map<uint32_t, MessageTally> messages;
  SiteZeroStats site0;
  /// Site pools plus net committed acquires at the end of the run: Eq. 1
  /// holds exactly when this equals M_e.
  int64_t tokens_accounted = 0;
};

/// Called between `Experiment::Setup` and `Run`: schedules faults or
/// installs a message tap that writes into the run's output.
using Hook = void (*)(harness::Experiment& experiment, RunOutput* out);

/// One experiment a figure needs. Runs with equal options and hook are
/// the same deterministic experiment, so figures share them.
struct Run {
  harness::ExperimentOptions options;
  Hook hook = nullptr;
};

/// Whether `a` and `b` are the same deterministic experiment, which
/// RunFigures then runs once for both.
bool SameRun(const Run& a, const Run& b);

/// One paper artifact. `print` gets the outputs of `runs()` in order,
/// prints the artifact's rows, and returns its verdict (none for the
/// design ablations and the message analysis, which claim nothing).
struct Figure {
  const char* id;
  const char* artifact;     ///< banner: the paper artifact it regenerates
  const char* description;  ///< banner: what it measures
  std::vector<Run> (*runs)();
  std::optional<Verdict> (*print)(const std::vector<const RunOutput*>& runs);
};

/// Every figure, in the order `all` prints them.
const std::vector<Figure>& AllFigures();
const Figure* FindFigure(std::string_view id);

/// Runs the figures' distinct experiments across all cores (results are
/// bit-identical to a serial run; see harness/parallel_runner.h), then
/// prints each figure followed by its `verdict <id> <OUTCOME> <measured>`
/// line. Returns false iff some verdict is FAIL.
bool RunFigures(const std::vector<const Figure*>& figures);

// Verdict predicates, one per paper claim, over the measured numbers.
// Throughputs are committed tps, latencies ms.

/// Table 2a: prediction MAE orders Random Walk > ARIMA > LSTM.
Verdict Table2aVerdict(double random_walk_mae, double arima_mae,
                       double lstm_mae);
/// Table 2b: Samya's p90 is single-digit ms, the replicated baselines'
/// above 100 ms.
Verdict Table2bVerdict(double samya_majority_p90, double samya_any_p90,
                       double multipaxsys_p90, double cockroach_p90);
/// Fig 3a: the trace is periodic (day-lag autocorrelation) and peaks near
/// the paper's max demand of 16000.
Verdict Fig3aVerdict(double day_lag_autocorrelation, int64_t max_demand);
/// Fig 3b: Samya commits >= 10x MultiPaxSys and CockroachDB, and at least
/// as much as Demarcation/Escrow.
Verdict Fig3bVerdict(double samya, double demarcation, double multipaxsys,
                     double cockroach);
/// Fig 3c: MultiPaxSys is at 0 tps after the third crash while Samya[*]
/// still serves with one region left and stays at or above
/// Samya[(n+1)/2] once a majority is dead.
Verdict Fig3cVerdict(double multipaxsys_after_third_crash,
                     double samya_any_last_region,
                     double samya_majority_after_third_crash,
                     double samya_any_after_third_crash);
/// Fig 3d: in the partitioned window Av[*] >= Av[(n+1)/2] >= 3x MultiPaxSys.
Verdict Fig3dVerdict(double samya_majority, double samya_any,
                     double multipaxsys);
/// Fig 3e: both Samya variants reach >= 90% of the no-constraint optimum
/// and beat no-redistribution.
Verdict Fig3eVerdict(double no_constraint, double samya_majority,
                     double samya_any, double no_redistribution);
/// Fig 3f: the paper's ~1.4x from prediction (PASS at >= 1.3x for both
/// variants), else our claim that prediction has no throughput effect
/// (both ratios within 2% of 1: NOT-REPRODUCED), else FAIL.
Verdict Fig3fVerdict(double majority_ratio, double any_ratio);
/// Fig 3g: 5 -> 20 sites gives >= 3.5x throughput with mean latency within
/// 1.5x, for both variants.
Verdict Fig3gVerdict(double majority_tps_ratio, double majority_latency_ratio,
                     double any_tps_ratio, double any_latency_ratio);
/// Fig 3h: MultiPaxSys overtakes Samya at a read ratio in (50%, 65%];
/// `crossover` < 0 means it never does within the sweep.
Verdict Fig3hVerdict(double crossover);
/// §5.9(i): raising M_e from mean to max demand lifts throughput >= 1.2x
/// (the paper's direction; it reports ~5x).
Verdict ExtMaxLimitVerdict(double max_over_mean);
/// §5.9(ii): Samya/MultiPaxSys ratios from the fastest to the original
/// arrival interval. The paper's +43% at the original rate (PASS at >=
/// 1.3x), else our claim that the advantage shrinks monotonically to ~1x
/// and never inverts (NOT-REPRODUCED), else FAIL.
Verdict ExtArrivalRateVerdict(const std::vector<double>& ratios);
/// BoundedCounter baseline (DESIGN.md §12): Av[(n+1)/2] >= BoundedCounter
/// >= Demarcation, and BoundedCounter rejects more than Av[(n+1)/2].
Verdict ExtBoundedCounterVerdict(double samya_majority, double bounded_counter,
                                 double demarcation,
                                 uint64_t samya_majority_rejected,
                                 uint64_t bounded_counter_rejected);
/// What a disconnection run's verdict checks.
struct DisconnectionCheck {
  SiteZeroStats site0;
  bool conserved = false;  ///< Eq. 1 exact at the end of the run
  size_t violations = 0;   ///< auditor violations over the run
  /// Eq. 1 exact and a clean audit: every disconnection run must be.
  bool clean() const { return conserved && violations == 0; }
};
/// Disconnection (DESIGN.md §12): with site 0's island cut off, seed Samya
/// serves nothing in disconnected mode; armed Samya does, appends to its op
/// log and reconciles; BoundedCounter enters a disconnected window and
/// reconciles. Every run conserves Eq. 1 exactly with a clean audit.
Verdict ExtDisconnectionVerdict(const DisconnectionCheck& seed,
                                const DisconnectionCheck& armed,
                                const DisconnectionCheck& bounded_counter);
/// A crash and recover inside the cut window: the armed site replays its
/// op log and reconciles, and Eq. 1 holds exactly with a clean audit.
Verdict ExtDisconnectionCrashVerdict(const DisconnectionCheck& crashed);
/// Robustness: the Fig 3b Samya/MultiPaxSys ratio is >= 10x on every seed.
Verdict RobustnessVerdict(double min_ratio, double max_ratio);

}  // namespace samya::figures

#endif  // SAMYA_TOOLS_FIGURES_H_
