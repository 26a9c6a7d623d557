#include "figures.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <tuple>

#include "common/logging.h"
#include "core/messages.h"
#include "core/reallocator.h"
#include "harness/chaos.h"
#include "harness/parallel_runner.h"
#include "predict/arima.h"
#include "predict/lstm.h"
#include "predict/metrics.h"
#include "workload/azure_generator.h"
#include "workload/transform.h"

namespace samya::figures {

using harness::Experiment;
using harness::ExperimentResult;
using harness::SystemKind;
using harness::SystemName;
using Outputs = std::vector<const RunOutput*>;

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPass:
      return "PASS";
    case Outcome::kFail:
      return "FAIL";
    case Outcome::kNotReproduced:
      return "NOT-REPRODUCED";
  }
  return "?";
}

namespace {

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

Verdict PassIf(bool ok, std::string measured) {
  return {ok ? Outcome::kPass : Outcome::kFail, std::move(measured)};
}

}  // namespace

// --- Verdict predicates -------------------------------------------------

Verdict Table2aVerdict(double random_walk_mae, double arima_mae,
                       double lstm_mae) {
  return PassIf(random_walk_mae > arima_mae && arima_mae > lstm_mae,
                Format("MAE RW=%.2f ARIMA=%.2f LSTM=%.2f", random_walk_mae,
                       arima_mae, lstm_mae));
}

Verdict Table2bVerdict(double samya_majority_p90, double samya_any_p90,
                       double multipaxsys_p90, double cockroach_p90) {
  return PassIf(std::max(samya_majority_p90, samya_any_p90) < 10 &&
                    std::min(multipaxsys_p90, cockroach_p90) > 100,
                Format("p90 Av[(n+1)/2]=%.2fms Av[*]=%.2fms "
                       "MultiPaxSys=%.1fms CockroachDB=%.1fms",
                       samya_majority_p90, samya_any_p90, multipaxsys_p90,
                       cockroach_p90));
}

Verdict Fig3aVerdict(double day_lag_autocorrelation, int64_t max_demand) {
  return PassIf(day_lag_autocorrelation >= 0.5 &&
                    std::abs(static_cast<double>(max_demand) - 16000) <= 1600,
                Format("day-lag ACF=%.3f max demand=%lld",
                       day_lag_autocorrelation,
                       static_cast<long long>(max_demand)));
}

Verdict Fig3bVerdict(double samya, double demarcation, double multipaxsys,
                     double cockroach) {
  return PassIf(samya >= 10 * multipaxsys && samya >= 10 * cockroach &&
                    samya >= demarcation,
                Format("Samya/MultiPaxSys=%.1fx Samya/CockroachDB=%.1fx "
                       "Samya/Dem=%.2fx",
                       samya / multipaxsys, samya / cockroach,
                       samya / demarcation));
}

Verdict Fig3cVerdict(double multipaxsys_after_third_crash,
                     double samya_any_last_region,
                     double samya_majority_after_third_crash,
                     double samya_any_after_third_crash) {
  return PassIf(multipaxsys_after_third_crash < 0.05 &&
                    samya_any_last_region >= 1 &&
                    samya_any_after_third_crash >=
                        samya_majority_after_third_crash,
                Format("MultiPaxSys after 3rd crash=%.2f tps; after 3rd "
                       "crash Av[*]=%.1f Av[(n+1)/2]=%.1f tps; Av[*] with 1 "
                       "region=%.1f tps",
                       multipaxsys_after_third_crash,
                       samya_any_after_third_crash,
                       samya_majority_after_third_crash,
                       samya_any_last_region));
}

Verdict Fig3dVerdict(double samya_majority, double samya_any,
                     double multipaxsys) {
  return PassIf(samya_any >= samya_majority &&
                    samya_majority >= 3 * multipaxsys,
                Format("partitioned Av[*]=%.1f Av[(n+1)/2]=%.1f "
                       "MultiPaxSys=%.1f tps",
                       samya_any, samya_majority, multipaxsys));
}

Verdict Fig3eVerdict(double no_constraint, double samya_majority,
                     double samya_any, double no_redistribution) {
  const double worst = std::min(samya_majority, samya_any);
  return PassIf(worst >= 0.9 * no_constraint && worst > no_redistribution,
                Format("of optimum Av[(n+1)/2]=%.1f%% Av[*]=%.1f%%; vs "
                       "no-redistribution %+.1f%% / %+.1f%%",
                       100 * samya_majority / no_constraint,
                       100 * samya_any / no_constraint,
                       100 * (samya_majority / no_redistribution - 1),
                       100 * (samya_any / no_redistribution - 1)));
}

Verdict Fig3fVerdict(double majority_ratio, double any_ratio) {
  std::string measured = Format(
      "prediction throughput Av[(n+1)/2]=%.3fx Av[*]=%.3fx (paper ~1.4x)",
      majority_ratio, any_ratio);
  if (std::min(majority_ratio, any_ratio) >= 1.3) {
    return {Outcome::kPass, measured};
  }
  const bool no_effect = std::abs(majority_ratio - 1) <= 0.02 &&
                         std::abs(any_ratio - 1) <= 0.02;
  return {no_effect ? Outcome::kNotReproduced : Outcome::kFail, measured};
}

Verdict Fig3gVerdict(double majority_tps_ratio, double majority_latency_ratio,
                     double any_tps_ratio, double any_latency_ratio) {
  return PassIf(std::min(majority_tps_ratio, any_tps_ratio) >= 3.5 &&
                    std::max(majority_latency_ratio, any_latency_ratio) <= 1.5,
                Format("20/5 sites: Av[(n+1)/2] %.2fx tps %.2fx latency, "
                       "Av[*] %.2fx tps %.2fx latency",
                       majority_tps_ratio, majority_latency_ratio,
                       any_tps_ratio, any_latency_ratio));
}

Verdict Fig3hVerdict(double crossover) {
  if (crossover < 0) return {Outcome::kFail, "no crossover within the sweep"};
  return PassIf(crossover > 0.5 && crossover <= 0.65,
                Format("crossover at %.0f%% reads (paper ~65%%)",
                       crossover * 100));
}

Verdict ExtMaxLimitVerdict(double max_over_mean) {
  return PassIf(max_over_mean >= 1.2,
                Format("max-limit/mean-limit=%.2fx (paper ~5x)",
                       max_over_mean));
}

Verdict ExtArrivalRateVerdict(const std::vector<double>& ratios) {
  if (ratios.empty()) return {Outcome::kFail, "no arrival intervals"};
  bool shrinks = true;
  for (size_t i = 1; i < ratios.size(); ++i) {
    shrinks = shrinks && ratios[i] <= ratios[i - 1] * 1.02;
  }
  const double first = ratios.front();
  const double last = ratios.back();
  std::string measured =
      Format("Samya/MultiPaxSys %.2fx at 5s -> %.2fx at 300s (paper +43%%)",
             first, last);
  if (shrinks && last >= 1.3) return {Outcome::kPass, measured};
  const bool ours = shrinks && last >= 0.95;
  return {ours ? Outcome::kNotReproduced : Outcome::kFail, measured};
}

Verdict ExtBoundedCounterVerdict(double samya_majority, double bounded_counter,
                                 double demarcation,
                                 uint64_t samya_majority_rejected,
                                 uint64_t bounded_counter_rejected) {
  return PassIf(samya_majority >= bounded_counter &&
                    bounded_counter >= demarcation &&
                    bounded_counter_rejected > samya_majority_rejected,
                Format("Av[(n+1)/2]=%.1f BoundedCounter=%.1f Dem=%.1f tps; "
                       "rejected BoundedCounter=%llu Av[(n+1)/2]=%llu",
                       samya_majority, bounded_counter, demarcation,
                       static_cast<unsigned long long>(bounded_counter_rejected),
                       static_cast<unsigned long long>(samya_majority_rejected)));
}

Verdict ExtDisconnectionVerdict(const DisconnectionCheck& seed,
                                const DisconnectionCheck& armed,
                                const DisconnectionCheck& bounded_counter) {
  const SiteZeroStats& dm = armed.site0;
  const SiteZeroStats& bc = bounded_counter.site0;
  return PassIf(
      seed.site0.disconnected_served == 0 && dm.disconnected_served > 0 &&
          dm.oplog_appends > 0 && dm.reconciles >= 1 &&
          bc.disconnected_epochs >= 1 && bc.reconciles >= 1 && seed.clean() &&
          armed.clean() && bounded_counter.clean(),
      Format("served disconnected seed=%llu armed=%llu (oplog=%llu "
             "reconciles=%llu); BoundedCounter epochs=%llu reconciles=%llu; "
             "Eq. 1 exact and audit clean in %d of 3 runs",
             static_cast<unsigned long long>(seed.site0.disconnected_served),
             static_cast<unsigned long long>(dm.disconnected_served),
             static_cast<unsigned long long>(dm.oplog_appends),
             static_cast<unsigned long long>(dm.reconciles),
             static_cast<unsigned long long>(bc.disconnected_epochs),
             static_cast<unsigned long long>(bc.reconciles),
             seed.clean() + armed.clean() + bounded_counter.clean()));
}

Verdict ExtDisconnectionCrashVerdict(const DisconnectionCheck& crashed) {
  const SiteZeroStats& s = crashed.site0;
  return PassIf(s.oplog_replayed > 0 && s.reconciles >= 1 && crashed.clean(),
                Format("crashed site replayed=%llu reconciles=%llu; Eq. 1 "
                       "exact and audit clean: %s",
                       static_cast<unsigned long long>(s.oplog_replayed),
                       static_cast<unsigned long long>(s.reconciles),
                       crashed.clean() ? "yes" : "NO"));
}

Verdict RobustnessVerdict(double min_ratio, double max_ratio) {
  return PassIf(min_ratio >= 10,
                Format("Samya/MultiPaxSys %.1fx .. %.1fx across seeds",
                       min_ratio, max_ratio));
}

// --- The figures --------------------------------------------------------

namespace {

constexpr SystemKind kFiveSystems[] = {
    SystemKind::kSamyaMajority, SystemKind::kSamyaAny,
    SystemKind::kDemarcation, SystemKind::kMultiPaxSys,
    SystemKind::kCockroachLike};
constexpr SystemKind kSamyaAndMultiPax[] = {SystemKind::kSamyaMajority,
                                            SystemKind::kSamyaAny,
                                            SystemKind::kMultiPaxSys};

Run SystemRun(SystemKind system, Duration duration, Hook hook = nullptr) {
  Run run;
  run.options.system = system;
  run.options.duration = duration;
  run.hook = hook;
  return run;
}

/// The word the per-figure shape lines print for a verdict.
const char* Reproduced(const Verdict& verdict) {
  return verdict.outcome == Outcome::kPass ? "REPRODUCED" : "NOT reproduced";
}

void PrintSummaryRow(const char* name, const ExperimentResult& r,
                     Duration duration) {
  std::printf(
      "%-38s %9.1f tps  committed=%-8llu rejected=%-7llu p50=%7.2fms "
      "p90=%8.2fms p99=%8.2fms\n",
      name, r.MeanTps(duration),
      static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
      static_cast<unsigned long long>(r.aggregate.rejected),
      r.aggregate.latency.P50() / 1000.0, r.aggregate.latency.P90() / 1000.0,
      r.aggregate.latency.P99() / 1000.0);
}

/// Prints `minute,<tps per 5-minute bin per run>` rows, bins from `runs[0]`.
void PrintFiveMinuteSeries(const Outputs& runs) {
  const auto base = runs[0]->result.throughput.Resample(Minutes(5));
  for (size_t bin = 0; bin < base.size(); ++bin) {
    std::printf("%zu", bin * 5);
    for (const RunOutput* run : runs) {
      const auto s = run->result.throughput.Resample(Minutes(5));
      std::printf(",%.1f", bin < s.size() ? s[bin] : 0.0);
    }
    std::printf("\n");
  }
}

// Table 2a — MAE of resource-demand prediction for Random Walk, ARIMA and
// LSTM on the synthetic Azure trace, 80/20 train/test split. Paper values
// are on the real Azure dataset, so only the ordering carries over.

std::vector<Run> NoRuns() { return {}; }

std::optional<Verdict> PrintTable2a(const Outputs&) {
  auto trace = workload::GenerateAzureTrace({});
  auto series = trace.CreationSeries();
  std::printf("trace: %zu intervals, mean demand %.1f, max %lld\n\n",
              series.size(), trace.MeanDemand(),
              static_cast<long long>(trace.MaxDemand()));
  const predict::Split split = predict::TrainTestSplit(series, 0.8);

  struct Row {
    const char* name;
    double mae;
    double rmse;
    double paper_mae;
  };
  std::vector<Row> rows;
  {
    predict::RandomWalkPredictor walk;
    auto m = predict::EvaluateOneStepAhead(walk, split);
    rows.push_back({"Random Walk", m->mae, m->rmse, 1212.19});
  }
  {
    predict::ArimaOptions opts;  // ARIMA(2,0,2), robust CSS (EXPERIMENTS.md)
    opts.p = 2;
    opts.d = 0;
    opts.q = 2;
    opts.robust_loss = true;
    opts.fit.max_iterations = 4000;
    opts.fit.tolerance = 1e-11;
    predict::ArimaPredictor arima(opts);
    auto m = predict::EvaluateOneStepAhead(arima, split);
    rows.push_back({"ARIMA", m->mae, m->rmse, 609.13});
  }
  {
    predict::LstmOptions opts;
    opts.period = 288;  // one day of 5-minute intervals
    predict::LstmPredictor lstm(opts);
    auto m = predict::EvaluateOneStepAhead(lstm, split);
    rows.push_back({"LSTM", m->mae, m->rmse, 259.21});
  }

  std::printf("%-14s %12s %12s %18s\n", "model", "MAE(tokens)", "RMSE",
              "paper MAE (Azure)");
  for (const auto& r : rows) {
    std::printf("%-14s %12.2f %12.2f %18.2f\n", r.name, r.mae, r.rmse,
                r.paper_mae);
  }
  Verdict verdict = Table2aVerdict(rows[0].mae, rows[1].mae, rows[2].mae);
  std::printf("\nordering RandomWalk > ARIMA > LSTM: %s\n",
              Reproduced(verdict));
  return verdict;
}

// Table 2b — commit-latency percentiles of the five systems over one hour
// of compressed load. Paper (ms), p90/p95/p99: Samya[(n+1)/2] 1.4/10.2/65.1,
// Samya[*] 2.9/37.3/97.3, Dem 3.5/59.6/213.9, MultiPaxSys 126.8/172.7/276.3,
// CockroachDB 158.7/184.2/351.4.

std::vector<Run> FiveSystemsHourRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kFiveSystems) runs.push_back(SystemRun(system, kHour));
  return runs;
}

std::optional<Verdict> PrintTable2b(const Outputs& runs) {
  std::printf("%-38s %10s %10s %10s %12s\n", "system", "p90(ms)", "p95(ms)",
              "p99(ms)", "committed");
  std::vector<double> p90s;
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i]->result;
    p90s.push_back(r.aggregate.latency.P90());
    std::printf("%-38s %10.2f %10.2f %10.2f %12llu\n",
                SystemName(kFiveSystems[i]), r.aggregate.latency.P90() / 1000.0,
                r.aggregate.latency.P95() / 1000.0,
                r.aggregate.latency.P99() / 1000.0,
                static_cast<unsigned long long>(r.aggregate.TotalCommitted()));
  }

  std::printf("\npaper (ms):                              p90        p95        p99\n");
  std::printf("  Samya w/ Av.[(n+1)/2]                   1.40       10.2       65.1\n");
  std::printf("  Samya w/ Av.[*]                         2.90       37.3       97.3\n");
  std::printf("  Demarcation/Escrow                      3.50       59.6      213.9\n");
  std::printf("  MultiPaxSys                           126.80      172.7      276.3\n");
  std::printf("  CockroachDB                           158.70      184.2      351.4\n");

  Verdict verdict = Table2bVerdict(p90s[0] / 1000, p90s[1] / 1000,
                                   p90s[3] / 1000, p90s[4] / 1000);
  std::printf("\nshape (Samya << replicated baselines): %s\n",
              Reproduced(verdict));
  return verdict;
}

// Fig 3a — the VM demand trace: creations and deletions per interval with
// a diurnal + weekly period, plus an hourly CSV of the first week.

std::optional<Verdict> PrintFig3a(const Outputs&) {
  auto trace = workload::GenerateAzureTrace({});
  std::printf("intervals: %zu (30 days @ 5 min)\n", trace.size());
  std::printf("mean demand: %.1f creations/interval (paper quotes ~600 on "
              "the real Azure trace)\n", trace.MeanDemand());
  std::printf("max demand:  %lld (paper: ~16000)\n",
              static_cast<long long>(trace.MaxDemand()));
  std::printf("total creations: %lld, total deletions: %lld\n",
              static_cast<long long>(trace.TotalCreations()),
              static_cast<long long>(trace.TotalDeletions()));

  // Day-lag autocorrelation of the hourly-aggregated demand, with the rare
  // near-max_rate bursts clipped first: a handful of 16000-token outliers
  // dominate the variance and mask the diurnal signal.
  auto raw = trace.CreationSeries();
  const double clip = 3.0 * trace.MeanDemand();
  for (double& v : raw) v = std::min(v, clip);
  std::vector<double> y;
  for (size_t i = 0; i + 12 <= raw.size(); i += 12) {
    double acc = 0;
    for (size_t k = 0; k < 12; ++k) acc += raw[i + k];
    y.push_back(acc);
  }
  double mean = 0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double num = 0, den = 0;
  for (size_t i = 0; i + 24 < y.size(); ++i) {
    num += (y[i] - mean) * (y[i + 24] - mean);
  }
  for (size_t i = 0; i < y.size(); ++i) den += (y[i] - mean) * (y[i] - mean);
  const double acf = num / den;
  std::printf("1-day-lag autocorrelation (hourly): %.3f (periodic)\n\n", acf);

  // Compressed form used by the experiments (5 min -> 5 s, 30 d -> 12 h).
  auto fast = workload::CompressTime(trace, 60);
  std::printf("compressed: interval=%s total=%s (paper: 5 s / 12 h)\n\n",
              FormatDuration(fast.interval()).c_str(),
              FormatDuration(fast.TotalDuration()).c_str());

  std::printf("hour,creations,deletions\n");
  for (size_t h = 0; h < 7 * 24; ++h) {
    int64_t c = 0, d = 0;
    for (size_t k = 0; k < 12; ++k) {
      const auto& iv = trace.at(h * 12 + k);
      c += iv.creations;
      d += iv.deletions;
    }
    std::printf("%zu,%lld,%lld\n", h, static_cast<long long>(c),
                static_cast<long long>(d));
  }
  return Fig3aVerdict(acf, trace.MaxDemand());
}

// Fig 3b — committed throughput of the five systems over one hour, plus
// the §5.3 redistribution counts (paper: 208 for Avantan[(n+1)/2] vs 792
// for Avantan[*]). Paper: Samya 16-18x MultiPaxSys/CockroachDB, ~1.3x Dem.

std::optional<Verdict> PrintFig3b(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintSummaryRow(SystemName(kFiveSystems[i]), runs[i]->result, kHour);
  }
  const double samya = runs[0]->result.MeanTps(kHour);
  const double samya_any = runs[1]->result.MeanTps(kHour);
  const double dem = runs[2]->result.MeanTps(kHour);
  const double mp = runs[3]->result.MeanTps(kHour);
  const double crdb = runs[4]->result.MeanTps(kHour);

  std::printf("\nratios (paper in parentheses):\n");
  std::printf("  Samya[(n+1)/2] / MultiPaxSys : %6.1fx  (16-18x)\n", samya / mp);
  std::printf("  Samya[(n+1)/2] / CockroachDB : %6.1fx  (16-18x)\n",
              samya / crdb);
  std::printf("  Samya[(n+1)/2] / Dem.Escrow  : %6.2fx  (~1.3x)\n", samya / dem);
  std::printf("  Dem.Escrow     / MultiPaxSys : %6.1fx  (~11x)\n", dem / mp);
  std::printf("  Samya[(n+1)/2] / Samya[*]    : %6.2fx  (>= 1x)\n",
              samya / samya_any);

  std::printf("\nredistributions over the hour (paper: 208 vs 792):\n");
  for (size_t i = 0; i < 2; ++i) {
    const auto& r = runs[i]->result;
    std::printf("  %-28s proactive=%llu reactive=%llu total=%llu aborted=%llu\n",
                SystemName(kFiveSystems[i]),
                static_cast<unsigned long long>(r.proactive_redistributions),
                static_cast<unsigned long long>(r.reactive_redistributions),
                static_cast<unsigned long long>(r.proactive_redistributions +
                                                r.reactive_redistributions),
                static_cast<unsigned long long>(r.instances_aborted));
  }

  std::printf("\nper-5-minute committed tps (plot series):\nminute");
  for (SystemKind system : kFiveSystems) std::printf(",%s", SystemName(system));
  std::printf("\n");
  PrintFiveMinuteSeries(runs);
  return Fig3bVerdict(samya, dem, mp, crdb);
}

// Fig 3c — throughput under staged crashes: from 5 regions, one region
// (its server and its client) crashes every 10 minutes until one is left.
// Paper: MultiPaxSys drops to 0 once a majority is dead; both Samya
// variants keep serving, Avantan[*] ahead of Avantan[(n+1)/2].

void CrashOneRegionEveryTenMinutes(Experiment& e, RunOutput*) {
  for (int k = 0; k < 4; ++k) {
    const SimTime at = Minutes(10) * (k + 1);
    e.faults().CrashAt(at, e.server_ids()[static_cast<size_t>(k)]);
    e.faults().CrashAt(at, e.client_ids()[static_cast<size_t>(k)]);
  }
}

std::vector<Run> Fig3cRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kSamyaAndMultiPax) {
    runs.push_back(
        SystemRun(system, Minutes(50), CrashOneRegionEveryTenMinutes));
  }
  return runs;
}

std::optional<Verdict> PrintFig3c(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintSummaryRow(SystemName(kSamyaAndMultiPax[i]), runs[i]->result,
                    Minutes(50));
  }
  std::printf("\nmean tps per 10-minute window (crash at each boundary):\n");
  std::printf("%-30s %8s %8s %8s %8s %8s\n", "system", "0-10m", "10-20m",
              "20-30m", "30-40m", "40-50m");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::printf("%-30s", SystemName(kSamyaAndMultiPax[i]));
    for (int w = 0; w < 5; ++w) {
      std::printf(" %8.1f", runs[i]->result.throughput.MeanRate(
                                Minutes(10) * w, Minutes(10) * (w + 1)));
    }
    std::printf("\n");
  }

  const double mp_after_majority_dead =
      runs[2]->result.throughput.MeanRate(Minutes(31), Minutes(50));
  const double samya_any_end =
      runs[1]->result.throughput.MeanRate(Minutes(40), Minutes(50));
  std::printf("\nMultiPaxSys after 3 crashes: %.2f tps (paper: drops to 0)\n",
              mp_after_majority_dead);
  std::printf("Samya[*] with 1 region left:  %.2f tps (paper: keeps serving)\n",
              samya_any_end);
  return Fig3cVerdict(
      mp_after_majority_dead, samya_any_end,
      runs[0]->result.throughput.MeanRate(Minutes(30), Minutes(50)),
      runs[1]->result.throughput.MeanRate(Minutes(30), Minutes(50)));
}

// Fig 3d — throughput during a 3-2 partition from minute 5 to the end of
// a 30-minute run. Paper: MultiPaxSys serves only its majority side and
// stays far below Samya; Avantan[*] pulls ahead because it redistributes
// inside the 2-site side, which Avantan[(n+1)/2] cannot.

constexpr Duration kFig3dRun = Minutes(30);

void PartitionThreeTwoAtMinuteFive(Experiment& e, RunOutput*) {
  // Side B: every node in the last two regions (sites/replicas, app
  // managers and clients alike).
  std::vector<sim::NodeId> group_a, group_b;
  for (size_t i = 0; i < e.cluster().num_nodes(); ++i) {
    const auto region = e.cluster().node(static_cast<sim::NodeId>(i))->region();
    const bool side_b = region == sim::Region::kAustraliaSoutheast1 ||
                        region == sim::Region::kSouthAmericaEast1;
    (side_b ? group_b : group_a).push_back(static_cast<sim::NodeId>(i));
  }
  e.faults().PartitionAt(Minutes(5), {group_a, group_b});
}

std::vector<Run> Fig3dRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kSamyaAndMultiPax) {
    runs.push_back(SystemRun(system, kFig3dRun, PartitionThreeTwoAtMinuteFive));
  }
  return runs;
}

std::optional<Verdict> PrintFig3d(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintSummaryRow(SystemName(kSamyaAndMultiPax[i]), runs[i]->result,
                    kFig3dRun);
  }
  std::printf("\nmean tps per 5-minute window (partition from minute 5):\n");
  std::printf("%-30s", "system");
  for (int w = 0; w < 6; ++w) std::printf(" %6d-%dm", w * 5, (w + 1) * 5);
  std::printf("\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::printf("%-30s", SystemName(kSamyaAndMultiPax[i]));
    for (int w = 0; w < 6; ++w) {
      std::printf(" %9.1f", runs[i]->result.throughput.MeanRate(
                                Minutes(5) * w, Minutes(5) * (w + 1)));
    }
    std::printf("\n");
  }

  const double maj = runs[0]->result.throughput.MeanRate(Minutes(10), kFig3dRun);
  const double any = runs[1]->result.throughput.MeanRate(Minutes(10), kFig3dRun);
  const double mp = runs[2]->result.throughput.MeanRate(Minutes(10), kFig3dRun);
  std::printf("\npartitioned-window means: Av[(n+1)/2]=%.1f  Av[*]=%.1f  "
              "MultiPaxSys=%.1f tps\n", maj, any, mp);
  Verdict verdict = Fig3dVerdict(maj, any, mp);
  std::printf("paper shape: Av[*] >= Av[(n+1)/2] >> MultiPaxSys : %s\n",
              Reproduced(verdict));
  return verdict;
}

// Fig 3e — is redistribution worth it? Samya against No Constraints (no
// bound: the throughput ceiling) and No Redistribution (exhausted sites
// reject). Paper: Samya ~3.5-4% below the optimum, ~14% above no-redis.

constexpr Duration kFig3eRun = Minutes(25);
constexpr SystemKind kFig3eSystems[] = {
    SystemKind::kSamyaNoConstraint, SystemKind::kSamyaMajority,
    SystemKind::kSamyaAny, SystemKind::kSamyaNoRedistribution};

std::vector<Run> Fig3eRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kFig3eSystems) {
    runs.push_back(SystemRun(system, kFig3eRun));
  }
  return runs;
}

std::optional<Verdict> PrintFig3e(const Outputs& runs) {
  std::vector<double> tps;
  for (size_t i = 0; i < runs.size(); ++i) {
    tps.push_back(runs[i]->result.MeanTps(kFig3eRun));
    PrintSummaryRow(SystemName(kFig3eSystems[i]), runs[i]->result, kFig3eRun);
  }
  std::printf("\nrelative to the no-constraint optimum (paper in parens):\n");
  std::printf("  Samya Av[(n+1)/2] : %5.1f%% of optimal (~96-96.5%%)\n",
              100.0 * tps[1] / tps[0]);
  std::printf("  Samya Av[*]       : %5.1f%% of optimal (~96-96.5%%)\n",
              100.0 * tps[2] / tps[0]);
  std::printf("  No redistribution : %5.1f%% of optimal\n",
              100.0 * tps[3] / tps[0]);
  std::printf("\nSamya vs no-redistribution (paper: ~+14%%):\n");
  std::printf("  Av[(n+1)/2] : %+5.1f%%\n", 100.0 * (tps[1] / tps[3] - 1));
  std::printf("  Av[*]       : %+5.1f%%\n", 100.0 * (tps[2] / tps[3] - 1));

  std::printf("\nper-5-minute tps series:\nminute,noconstraint,av_majority,"
              "av_any,noredistribution\n");
  PrintFiveMinuteSeries(runs);
  return Fig3eVerdict(tps[0], tps[1], tps[2], tps[3]);
}

// Fig 3f — the Prediction Module: each Avantan version with and without
// proactive redistribution over 30 minutes. Paper: ~1.4x with prediction.

constexpr Duration kFig3fRun = Minutes(30);
constexpr SystemKind kFig3fSystems[] = {
    SystemKind::kSamyaMajority, SystemKind::kSamyaMajorityNoPredict,
    SystemKind::kSamyaAny, SystemKind::kSamyaAnyNoPredict};

std::vector<Run> Fig3fRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kFig3fSystems) {
    runs.push_back(SystemRun(system, kFig3fRun));
  }
  return runs;
}

std::optional<Verdict> PrintFig3f(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintSummaryRow(SystemName(kFig3fSystems[i]), runs[i]->result, kFig3fRun);
  }
  const auto& with_maj = runs[0]->result;
  const auto& wo_maj = runs[1]->result;
  const auto& with_any = runs[2]->result;
  const auto& wo_any = runs[3]->result;
  const double maj_ratio = with_maj.MeanTps(kFig3fRun) / wo_maj.MeanTps(kFig3fRun);
  const double any_ratio = with_any.MeanTps(kFig3fRun) / wo_any.MeanTps(kFig3fRun);

  std::printf("\nprediction benefit (paper: ~1.4x; see EXPERIMENTS.md for why\n"
              "an open-loop trace-driven load bounds this near 1x here):\n");
  std::printf("  Av[(n+1)/2]: %.3fx throughput, %llu vs %llu rejected, "
              "proactive+reactive %llu+%llu vs reactive-only %llu\n",
              maj_ratio,
              static_cast<unsigned long long>(with_maj.aggregate.rejected),
              static_cast<unsigned long long>(wo_maj.aggregate.rejected),
              static_cast<unsigned long long>(with_maj.proactive_redistributions),
              static_cast<unsigned long long>(with_maj.reactive_redistributions),
              static_cast<unsigned long long>(wo_maj.reactive_redistributions));
  std::printf("  Av[*]:       %.3fx throughput, %llu vs %llu rejected\n",
              any_ratio,
              static_cast<unsigned long long>(with_any.aggregate.rejected),
              static_cast<unsigned long long>(wo_any.aggregate.rejected));

  std::printf("\nrejected transactions (with vs without prediction):\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i]->result;
    std::printf("  %-42s rejected=%llu dropped=%llu\n",
                SystemName(kFig3fSystems[i]),
                static_cast<unsigned long long>(r.aggregate.rejected),
                static_cast<unsigned long long>(r.aggregate.dropped));
  }
  return Fig3fVerdict(maj_ratio, any_ratio);
}

// Fig 3g — scalability from 5 to 20 sites (extra sites in the same five
// regions, offered load scaled with the site count), 10 minutes each.
// Paper: throughput grows ~linearly while mean latency stays flat.

constexpr Duration kFig3gRun = Minutes(10);
constexpr SystemKind kSamyaVersions[] = {SystemKind::kSamyaMajority,
                                         SystemKind::kSamyaAny};
constexpr int kFig3gSites[] = {5, 10, 15, 20};

std::vector<Run> Fig3gRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kSamyaVersions) {
    for (int sites : kFig3gSites) {
      Run run = SystemRun(system, kFig3gRun);
      run.options.num_sites = sites;
      run.options.scale_load_with_sites = true;
      // Iso-pressure: the pool grows with the offered load so each site
      // keeps the paper's 1000-token share (§5.2's per-site allocation).
      run.options.max_tokens = 1000 * sites;
      runs.push_back(run);
    }
  }
  return runs;
}

std::optional<Verdict> PrintFig3g(const Outputs& runs) {
  std::printf("%-28s %6s %12s %14s\n", "system", "sites", "tps",
              "mean latency");
  double tps_ratio[2], latency_ratio[2];
  size_t idx = 0;
  for (size_t v = 0; v < 2; ++v) {
    double first_tps = 0, first_latency = 0;
    for (int sites : kFig3gSites) {
      const auto& r = runs[idx++]->result;
      const double tps = r.MeanTps(kFig3gRun);
      const double latency = r.aggregate.latency.mean() / 1000.0;
      std::printf("%-28s %6d %12.1f %11.2fms\n", SystemName(kSamyaVersions[v]),
                  sites, tps, latency);
      if (sites == 5) {
        first_tps = tps;
        first_latency = latency;
      }
      tps_ratio[v] = tps / first_tps;
      latency_ratio[v] = latency / first_latency;
    }
  }
  std::printf("\nthroughput 20 sites / 5 sites (Av[(n+1)/2]): %.1fx "
              "(paper: ~linear, i.e. ~4x)\n", tps_ratio[0]);
  return Fig3gVerdict(tps_ratio[0], latency_ratio[0], tps_ratio[1],
                      latency_ratio[1]);
}

// Fig 3h — throughput as the share of read-only transactions grows, with
// closed-loop (saturating) clients: Samya's global-snapshot read fans out
// to every site while MultiPaxSys reads only visit its leader. Paper:
// MultiPaxSys overtakes Samya once reads pass ~65%.

constexpr Duration kFig3hRun = Minutes(10);
constexpr double kReadRatios[] = {0.0, 0.2, 0.4, 0.5, 0.65, 0.8, 0.9};

std::vector<Run> Fig3hRuns() {
  std::vector<Run> runs;
  for (double ratio : kReadRatios) {
    for (SystemKind system : kSamyaAndMultiPax) {
      Run run = SystemRun(system, kFig3hRun);
      run.options.read_ratio = ratio;
      run.options.closed_loop = true;
      run.options.client_window = 4;
      runs.push_back(run);
    }
  }
  return runs;
}

std::optional<Verdict> PrintFig3h(const Outputs& runs) {
  std::printf("%-10s %16s %16s %16s\n", "read%", "Av[(n+1)/2] tps",
              "Av[*] tps", "MultiPaxSys tps");
  double crossover = -1;
  double prev_diff = 0;
  size_t idx = 0;
  for (double ratio : kReadRatios) {
    double tps[3];
    for (int i = 0; i < 3; ++i) tps[i] = runs[idx++]->result.MeanTps(kFig3hRun);
    std::printf("%-10.0f %16.1f %16.1f %16.1f\n", ratio * 100, tps[0], tps[1],
                tps[2]);
    const double diff = tps[0] - tps[2];
    if (crossover < 0 && diff < 0 && prev_diff > 0) crossover = ratio;
    prev_diff = diff;
  }
  if (crossover > 0) {
    std::printf("\ncrossover: MultiPaxSys overtakes Samya near %.0f%% reads "
                "(paper: ~65%%)\n", crossover * 100);
  } else {
    std::printf("\ncrossover: %s within the sweep (paper: ~65%%)\n",
                prev_diff > 0 ? "not reached" : "below the sweep range");
  }
  return Fig3hVerdict(crossover);
}

// §5.9(i) — throughput as M_e sweeps from the trace's mean demand to its
// max demand. Paper: ~5x, as a larger pool turns rejections into commits.

constexpr Duration kExtRun = Minutes(20);

/// M_e points: the trace's mean demand, four fixed sizes, its max demand.
std::vector<int64_t> MaxLimits() {
  auto trace = workload::GenerateAzureTrace({});
  return {static_cast<int64_t>(trace.MeanDemand()), 1000, 2500, 5000, 10000,
          trace.MaxDemand()};
}

std::vector<Run> ExtMaxLimitRuns() {
  std::vector<Run> runs;
  for (int64_t limit : MaxLimits()) {
    for (SystemKind system : kSamyaVersions) {
      Run run = SystemRun(system, kExtRun);
      run.options.max_tokens = limit;
      runs.push_back(run);
    }
  }
  return runs;
}

std::optional<Verdict> PrintExtMaxLimit(const Outputs& runs) {
  const std::vector<int64_t> limits = MaxLimits();
  std::printf("trace mean demand = %lld, max demand = %lld\n\n",
              static_cast<long long>(limits.front()),
              static_cast<long long>(limits.back()));
  std::printf("%-10s %16s %16s %12s\n", "M_e", "Av[(n+1)/2] tps", "Av[*] tps",
              "rejected");
  double first_maj = 0, last_maj = 0;
  size_t idx = 0;
  for (int64_t limit : limits) {
    const auto& maj = runs[idx++]->result;
    const auto& any = runs[idx++]->result;
    const double tps_maj = maj.MeanTps(kExtRun);
    std::printf("%-10lld %16.1f %16.1f %12llu\n",
                static_cast<long long>(limit), tps_maj, any.MeanTps(kExtRun),
                static_cast<unsigned long long>(maj.aggregate.rejected));
    if (limit == limits[0]) first_maj = tps_maj;
    last_maj = tps_maj;
  }
  std::printf("\nthroughput max-limit / mean-limit: %.1fx (paper: ~5x)\n",
              last_maj / first_maj);
  return ExtMaxLimitVerdict(last_maj / first_maj);
}

// §5.9(ii) — Samya vs MultiPaxSys as the arrival interval stretches from
// the hot-spot 5 s back to the original 300 s sampling (a sweep of the
// time-compression factor). Paper: the advantage shrinks, yet Samya still
// commits ~43% more at the original rate.

struct ArrivalPoint {
  int64_t compress;  ///< 300 s / compress = the effective arrival interval
  const char* label;
};
constexpr ArrivalPoint kArrivalPoints[] = {
    {60, "5s"}, {30, "10s"}, {12, "25s"}, {6, "50s"}, {2, "150s"},
    {1, "300s (original)"}};
constexpr SystemKind kSamyaVsMultiPax[] = {SystemKind::kSamyaMajority,
                                           SystemKind::kMultiPaxSys};

std::vector<Run> ExtArrivalRateRuns() {
  std::vector<Run> runs;
  for (const ArrivalPoint& p : kArrivalPoints) {
    for (SystemKind system : kSamyaVsMultiPax) {
      Run run = SystemRun(system, kExtRun);
      run.options.compress_factor = p.compress;
      runs.push_back(run);
    }
  }
  return runs;
}

std::optional<Verdict> PrintExtArrivalRate(const Outputs& runs) {
  std::printf("%-20s %16s %16s %10s\n", "arrival interval", "Samya tps",
              "MultiPaxSys tps", "ratio");
  std::vector<double> ratios;
  size_t idx = 0;
  for (const ArrivalPoint& p : kArrivalPoints) {
    const double samya_tps = runs[idx++]->result.MeanTps(kExtRun);
    const double mp_tps = runs[idx++]->result.MeanTps(kExtRun);
    ratios.push_back(samya_tps / mp_tps);
    std::printf("%-20s %16.2f %16.2f %9.2fx\n", p.label, samya_tps, mp_tps,
                ratios.back());
  }
  std::printf("\nat the original 300s arrival interval Samya commits "
              "%.0f%% more (paper: ~43%% more)\n", (ratios.back() - 1) * 100);
  return ExtArrivalRateVerdict(ratios);
}

// BoundedCounter baseline (DESIGN.md §12; Balegas et al., PAPERS.md): the
// Fig 3b family plus the CRDT, 30 minutes at M_e = 5000, where the pool is
// scarce enough that coordination matters. Ours, not the paper's: the CRDT
// trades rights pairwise with no consensus round, so it lands between
// Avantan[(n+1)/2] and Demarcation and rejects more than Samya.

constexpr Duration kBoundedCounterRun = Minutes(30);
constexpr SystemKind kBoundedCounterSystems[] = {
    SystemKind::kBoundedCounter, SystemKind::kSamyaMajority,
    SystemKind::kSamyaAny, SystemKind::kDemarcation};

std::vector<Run> ExtBoundedCounterRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kBoundedCounterSystems) {
    runs.push_back(SystemRun(system, kBoundedCounterRun));
  }
  return runs;
}

std::optional<Verdict> PrintExtBoundedCounter(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintSummaryRow(SystemName(kBoundedCounterSystems[i]), runs[i]->result,
                    kBoundedCounterRun);
  }
  const auto& bc = runs[0]->result;
  const auto& maj = runs[1]->result;
  return ExtBoundedCounterVerdict(
      maj.MeanTps(kBoundedCounterRun), bc.MeanTps(kBoundedCounterRun),
      runs[3]->result.MeanTps(kBoundedCounterRun), maj.aggregate.rejected,
      bc.aggregate.rejected);
}

// Disconnection (DESIGN.md §12): site 0's island {site 0, app manager 5,
// client 10} is cut off from 20 s to 90 s of a 120 s run, audited
// continuously. M_e = 700 is small enough that the cut site's pool runs dry
// inside the window. Seed Samya never enters disconnected mode: the cut
// site serves what its pool covers and freezes once it runs dry. Armed, it
// serves from its pool behind the durable op log and reconciles on heal;
// the BoundedCounter CRDT serves from local rights and merges. The crash
// variant crashes and recovers the armed site inside the window, so
// reconciliation must first replay the op log from stable storage.

constexpr Duration kDiscoRun = Seconds(120);
constexpr int64_t kDiscoTokens = 700;
constexpr Duration kIsolateAt = Seconds(20);
constexpr Duration kHealAt = Seconds(90);

Run DisconnectionRun(SystemKind system, bool armed, bool crash) {
  harness::ChaosCase c;
  c.system = system;
  c.seed = 11;
  c.max_tokens = kDiscoTokens;
  c.duration = kDiscoRun;
  c.disconnected_mode = armed;
  sim::FaultOp isolate;
  isolate.at = kIsolateAt;
  isolate.kind = sim::FaultOp::Kind::kIsolateSite;
  isolate.a = 0;
  isolate.groups = {{0, 5, 10}};
  c.schedule.ops.push_back(isolate);
  if (crash) {
    c.schedule.ops.push_back({Seconds(50), sim::FaultOp::Kind::kCrash, 0});
    c.schedule.ops.push_back({Seconds(54), sim::FaultOp::Kind::kRecover, 0});
  }
  c.schedule.ops.push_back({kHealAt, sim::FaultOp::Kind::kHeal});
  Run run;
  run.options = harness::MakeChaosOptions(c, harness::AuditOptions{});
  return run;
}

/// Prints one disconnection row and returns what its verdict checks.
DisconnectionCheck PrintDisconnectionRow(const char* label,
                                         const RunOutput& run) {
  const ExperimentResult& r = run.result;
  const SiteZeroStats& s = run.site0;
  const DisconnectionCheck check{s, run.tokens_accounted == kDiscoTokens,
                                 r.violations.size()};
  std::printf(
      "%-26s window=%6.1f tps  committed=%-6llu epochs=%llu served=%llu "
      "oplog=%llu/%llu reconciles=%llu conserved=%s violations=%zu\n",
      label, r.throughput.MeanRate(kIsolateAt, kHealAt),
      static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
      static_cast<unsigned long long>(s.disconnected_epochs),
      static_cast<unsigned long long>(s.disconnected_served),
      static_cast<unsigned long long>(s.oplog_appends),
      static_cast<unsigned long long>(s.oplog_replayed),
      static_cast<unsigned long long>(s.reconciles),
      check.conserved ? "yes" : "NO", check.violations);
  return check;
}

std::vector<Run> ExtDisconnectionRuns() {
  return {DisconnectionRun(SystemKind::kSamyaMajority, false, false),
          DisconnectionRun(SystemKind::kSamyaMajority, true, false),
          DisconnectionRun(SystemKind::kBoundedCounter, false, false)};
}

std::optional<Verdict> PrintExtDisconnection(const Outputs& runs) {
  const DisconnectionCheck seed = PrintDisconnectionRow("samya (seed)", *runs[0]);
  const DisconnectionCheck armed =
      PrintDisconnectionRow("samya (disconnected)", *runs[1]);
  const DisconnectionCheck bc =
      PrintDisconnectionRow("bounded_counter", *runs[2]);
  return ExtDisconnectionVerdict(seed, armed, bc);
}

std::vector<Run> ExtDisconnectionCrashRuns() {
  return {DisconnectionRun(SystemKind::kSamyaMajority, true, true)};
}

std::optional<Verdict> PrintExtDisconnectionCrash(const Outputs& runs) {
  return ExtDisconnectionCrashVerdict(
      PrintDisconnectionRow("samya (crash mid-window)", *runs[0]));
}

// Design-choice ablations beyond the paper's Figs 3e/3f, each on the
// standard 5-region workload for 15 minutes: the pluggable Redistribution
// Module (§4.4), the epoch (prediction look-ahead, §4.2), and the Avantan
// election/accept timeouts.

constexpr Duration kAblationRun = Minutes(15);
constexpr Duration kEpochs[] = {Seconds(2), Seconds(5), Seconds(15),
                                Seconds(30)};
constexpr Duration kTimeouts[] = {Millis(200), Millis(350), Millis(700)};
constexpr const char* kReallocatorNames[] = {"greedy (Algorithm 2)",
                                             "max-requests", "proportional"};

Run AblationRun(const core::SiteOptions& site_template) {
  Run run = SystemRun(SystemKind::kSamyaMajority, kAblationRun);
  run.options.site_template = site_template;
  return run;
}

std::vector<Run> AblationRuns() {
  std::vector<Run> runs;
  const std::shared_ptr<core::Reallocator> reallocators[] = {
      std::make_shared<core::GreedyReallocator>(),
      std::make_shared<core::MaxRequestsReallocator>(),
      std::make_shared<core::ProportionalReallocator>()};
  for (const auto& reallocator : reallocators) {
    core::SiteOptions t;
    t.reallocator = reallocator;
    runs.push_back(AblationRun(t));
  }
  for (Duration epoch : kEpochs) {
    core::SiteOptions t;
    t.epoch = epoch;
    runs.push_back(AblationRun(t));
  }
  for (Duration timeout : kTimeouts) {
    core::SiteOptions t;
    t.election_timeout = timeout;
    t.accept_timeout = timeout;
    runs.push_back(AblationRun(t));
  }
  return runs;
}

void AblationRow(const char* name, const ExperimentResult& r) {
  std::printf("  %-28s %8.1f tps  rejected=%-6llu redis=%-5llu p99=%7.1fms\n",
              name, r.MeanTps(kAblationRun),
              static_cast<unsigned long long>(r.aggregate.rejected),
              static_cast<unsigned long long>(r.proactive_redistributions +
                                              r.reactive_redistributions),
              r.aggregate.latency.P99() / 1000.0);
}

std::optional<Verdict> PrintAblation(const Outputs& runs) {
  size_t idx = 0;
  std::printf("\n[1] Redistribution Module policy (§4.4 pluggability):\n");
  for (const char* name : kReallocatorNames) {
    AblationRow(name, runs[idx++]->result);
  }
  std::printf("\n[2] Epoch (prediction look-ahead) duration (§4.2):\n");
  for (Duration epoch : kEpochs) {
    AblationRow(("epoch = " + FormatDuration(epoch)).c_str(),
                runs[idx++]->result);
  }
  std::printf("\n[3] Avantan election/accept timeouts:\n");
  for (Duration timeout : kTimeouts) {
    AblationRow(("timeout = " + FormatDuration(timeout)).c_str(),
                runs[idx++]->result);
  }
  std::printf("\nAlgorithm 2's greedy policy maximises token usage; the\n"
              "alternatives trade that for request-count or fairness. Short\n"
              "epochs predict more often (more proactive instances), long\n"
              "ones react slower; timeouts trade recovery speed for spurious\n"
              "re-elections on slow links.\n");
  return std::nullopt;
}

// Message analysis beyond the paper's figures: per-message-type traffic of
// both Avantan versions over 20 minutes, via the simulator's message tap.
// Quantifies §5.3: Avantan[*]'s greedy subsets cause more, smaller
// redistributions than Avantan[(n+1)/2]'s majority rebalancing.

constexpr Duration kAnalysisRun = Minutes(20);

const char* MessageTypeName(uint32_t type) {
  switch (type) {
    case kMsgTokenRequest: return "token-request";
    case kMsgTokenResponse: return "token-response";
    case core::kMsgElectionGetValue: return "Election-GetValue";
    case core::kMsgElectionOkValue: return "ElectionOk-Value";
    case core::kMsgAcceptValue: return "Accept-Value";
    case core::kMsgAcceptOk: return "Accept-ok";
    case core::kMsgDecision: return "Decision";
    case core::kMsgDiscard: return "Discard";
    case core::kMsgStatusQuery: return "StatusQuery";
    case core::kMsgStatusReply: return "StatusReply";
    case core::kMsgReadQuery: return "ReadQuery";
    case core::kMsgReadReply: return "ReadReply";
    default: return "other";
  }
}

void TallySentMessages(Experiment& e, RunOutput* out) {
  e.cluster().net().set_message_tap(
      [out](SimTime, sim::NodeId, sim::NodeId, uint32_t type, size_t bytes,
            sim::TapEvent ev) {
        // Count each send attempt once; delivery-time events would count
        // the same message twice.
        if (ev != sim::TapEvent::kSent && ev != sim::TapEvent::kDroppedAtSend)
          return;
        auto& t = out->messages[type];
        ++t.count;
        t.bytes += bytes;
      });
}

std::vector<Run> AnalysisRuns() {
  std::vector<Run> runs;
  for (SystemKind system : kSamyaVersions) {
    runs.push_back(SystemRun(system, kAnalysisRun, TallySentMessages));
  }
  return runs;
}

std::optional<Verdict> PrintAnalysis(const Outputs& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i]->result;
    uint64_t protocol_msgs = 0, protocol_bytes = 0;
    for (const auto& [type, t] : runs[i]->messages) {
      if (type >= 200 && type < 230) {
        protocol_msgs += t.count;
        protocol_bytes += t.bytes;
      }
    }
    const uint64_t redistributions =
        r.proactive_redistributions + r.reactive_redistributions;
    const auto per_redistribution = [&](uint64_t total) {
      return redistributions > 0 ? static_cast<double>(total) /
                                       static_cast<double>(redistributions)
                                 : 0.0;
    };

    std::printf("\n--- %s ---\n", SystemName(kSamyaVersions[i]));
    std::printf("%-20s %12s %12s\n", "message type", "count", "bytes");
    for (const auto& [type, t] : runs[i]->messages) {
      std::printf("%-20s %12llu %12llu\n", MessageTypeName(type),
                  static_cast<unsigned long long>(t.count),
                  static_cast<unsigned long long>(t.bytes));
    }
    std::printf("redistributions: %llu (+%llu aborted) -> %.1f protocol "
                "messages and %.0f bytes per redistribution\n",
                static_cast<unsigned long long>(redistributions),
                static_cast<unsigned long long>(r.instances_aborted),
                per_redistribution(protocol_msgs),
                per_redistribution(protocol_bytes));
    std::printf("sites spent %s frozen in total (%.2f%% of 5 x 20 min)\n",
                FormatDuration(r.total_site_frozen_time).c_str(),
                100.0 * ToSeconds(r.total_site_frozen_time) /
                    (5 * ToSeconds(kAnalysisRun)));
  }
  return std::nullopt;
}

// Robustness: the Fig 3b headline ratio across independent workload and
// simulation seeds, 20 minutes each. The paper reports a single GCP run;
// the claim should hold for every seed, not one lucky draw.

constexpr uint64_t kSeeds[] = {42u, 1u, 7u, 1234u, 98765u};

std::vector<Run> RobustnessRuns() {
  std::vector<Run> runs;
  for (uint64_t seed : kSeeds) {
    for (SystemKind system : kSamyaVsMultiPax) {
      Run run = SystemRun(system, kExtRun);
      run.options.seed = seed;
      run.options.trace.seed = seed * 31 + 5;  // independent workload too
      runs.push_back(run);
    }
  }
  return runs;
}

std::optional<Verdict> PrintRobustness(const Outputs& runs) {
  std::printf("%-8s %14s %16s %10s\n", "seed", "Samya tps", "MultiPaxSys tps",
              "ratio");
  double min_ratio = 1e9, max_ratio = 0;
  size_t idx = 0;
  for (uint64_t seed : kSeeds) {
    const double samya_tps = runs[idx++]->result.MeanTps(kExtRun);
    const double mp_tps = runs[idx++]->result.MeanTps(kExtRun);
    const double ratio = samya_tps / mp_tps;
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
    std::printf("%-8llu %14.1f %16.1f %9.1fx\n",
                static_cast<unsigned long long>(seed), samya_tps, mp_tps,
                ratio);
  }
  std::printf("\nratio range across seeds: %.1fx .. %.1fx (paper: 16-18x)\n",
              min_ratio, max_ratio);
  return RobustnessVerdict(min_ratio, max_ratio);
}

/// The options any figure sets. Runs that agree on all of them (and on the
/// hook) are the same experiment, since every other option keeps its
/// default or, for MakeChaosOptions' audit and flight-recorder settings,
/// follows from the audit flag, the schedule and the duration; a figure
/// that sets another option must add it here.
auto RunKey(const Run& run) {
  const harness::ExperimentOptions& o = run.options;
  const core::SiteOptions& s = o.site_template;
  return std::tie(run.hook, o.system, o.num_sites, o.max_tokens, o.duration,
                  o.read_ratio, o.seed, o.trace.seed, o.compress_factor,
                  o.scale_load_with_sites, o.closed_loop, o.client_window,
                  o.audit.enabled, o.fault_schedule.ops, s.reallocator, s.epoch,
                  s.election_timeout, s.accept_timeout,
                  s.enable_disconnected_mode);
}

/// Fills the numbers a verdict needs that only the finished Experiment
/// holds: site 0's disconnected-mode counters and the Eq. 1 sum.
void RecordEndState(const Experiment& e, RunOutput* out) {
  SiteZeroStats& z = out->site0;
  if (!e.samya_sites().empty()) {
    const auto& s = e.samya_sites()[0]->stats();
    z.disconnected_epochs = s.disconnected_epochs;
    z.disconnected_served = s.disconnected_served;
    z.oplog_appends = s.oplog_appends;
    z.oplog_replayed = s.oplog_replayed;
    z.reconciles = s.reconciles;
  } else if (!e.bounded_sites().empty()) {
    const auto& s = e.bounded_sites()[0]->stats();
    z.disconnected_epochs = s.disconnected_windows;
    z.disconnected_served = s.committed_acquires + s.committed_releases;
    z.reconciles = s.reconciles;
  }
  out->tokens_accounted = e.TotalSiteTokens() + e.ServerNetAcquires();
}

}  // namespace

bool SameRun(const Run& a, const Run& b) { return RunKey(a) == RunKey(b); }

const std::vector<Figure>& AllFigures() {
  static const std::vector<Figure> figures = {
      {"table2a", "Table 2a", "MAE of demand prediction (RW / ARIMA / LSTM)",
       NoRuns, PrintTable2a},
      {"table2b", "Table 2b", "commit latency percentiles, 1 hour of load",
       FiveSystemsHourRuns, PrintTable2b},
      {"fig3a", "Fig 3a", "synthetic Azure VM demand trace", NoRuns,
       PrintFig3a},
      {"fig3b", "Fig 3b", "throughput over 1 hour, five systems",
       FiveSystemsHourRuns, PrintFig3b},
      {"fig3c", "Fig 3c",
       "throughput while crashing one region every 10 minutes", Fig3cRuns,
       PrintFig3c},
      {"fig3d", "Fig 3d",
       "throughput during a 3-2 partition (starts at minute 5)", Fig3dRuns,
       PrintFig3d},
      {"fig3e", "Fig 3e",
       "no-constraint vs Samya vs no-redistribution (25 min)", Fig3eRuns,
       PrintFig3e},
      {"fig3f", "Fig 3f",
       "proactive (predictive) vs reactive-only redistribution", Fig3fRuns,
       PrintFig3f},
      {"fig3g", "Fig 3g", "throughput and latency, 5 to 20 sites", Fig3gRuns,
       PrintFig3g},
      {"fig3h", "Fig 3h", "average throughput vs read-only transaction ratio",
       Fig3hRuns, PrintFig3h},
      {"ext_max_limit", "ext §5.9(i)", "throughput vs maximum limit M_e",
       ExtMaxLimitRuns, PrintExtMaxLimit},
      {"ext_arrival_rate", "ext §5.9(ii)",
       "throughput vs request arrival interval", ExtArrivalRateRuns,
       PrintExtArrivalRate},
      {"ext_bounded_counter", "ext §12",
       "BoundedCounter CRDT vs Samya and Demarcation, M_e 5000 (30 min)",
       ExtBoundedCounterRuns, PrintExtBoundedCounter},
      {"ext_disconnection", "ext §12",
       "island {0,5,10} cut 20s-90s of 120s, M_e 700: seed / armed Samya, "
       "BoundedCounter", ExtDisconnectionRuns, PrintExtDisconnection},
      {"ext_disconnection_crash", "ext §12",
       "armed Samya, crash 50s and recover 54s inside the same cut",
       ExtDisconnectionCrashRuns, PrintExtDisconnectionCrash},
      {"ablation_design", "ablations",
       "design-choice sweeps (reallocator / epoch / timers)", AblationRuns,
       PrintAblation},
      {"analysis_messages", "analysis",
       "Avantan message-type traffic breakdown (20 min)", AnalysisRuns,
       PrintAnalysis},
      {"robustness_seeds", "robustness",
       "Fig 3b headline ratio across seeds (20 min each)", RobustnessRuns,
       PrintRobustness},
  };
  return figures;
}

const Figure* FindFigure(std::string_view id) {
  for (const Figure& figure : AllFigures()) {
    if (id == figure.id) return &figure;
  }
  return nullptr;
}

bool RunFigures(const std::vector<const Figure*>& figures) {
  // Each figure's runs, as indices into the distinct experiments.
  std::vector<Run> distinct;
  std::vector<std::vector<size_t>> slots(figures.size());
  for (size_t f = 0; f < figures.size(); ++f) {
    for (Run& run : figures[f]->runs()) {
      size_t i = 0;
      while (i < distinct.size() && !SameRun(distinct[i], run)) ++i;
      if (i == distinct.size()) distinct.push_back(std::move(run));
      slots[f].push_back(i);
    }
  }

  const int threads = harness::DefaultRunnerThreads();
  if (!distinct.empty()) {
    std::printf("[sweep: %zu experiments on %d thread(s)]\n", distinct.size(),
                threads);
  }
  std::vector<RunOutput> outputs(distinct.size());
  // Each task owns its Experiment and writes only its own output slot,
  // which is RunIndexed's determinism contract.
  harness::RunIndexed(distinct.size(), threads, [&](size_t i) {
    Logger::SetThreadPrefix("run " + std::to_string(i));
    Experiment experiment(distinct[i].options);
    experiment.Setup();
    if (distinct[i].hook != nullptr) distinct[i].hook(experiment, &outputs[i]);
    outputs[i].result = experiment.Run();
    RecordEndState(experiment, &outputs[i]);
    Logger::SetThreadPrefix("");
  });

  bool ok = true;
  for (size_t f = 0; f < figures.size(); ++f) {
    const Figure& figure = *figures[f];
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure.artifact, figure.description);
    std::printf("==============================================================\n");
    Outputs runs;
    for (size_t slot : slots[f]) runs.push_back(&outputs[slot]);
    if (auto verdict = figure.print(runs)) {
      std::printf("verdict %s %s %s\n", figure.id,
                  OutcomeName(verdict->outcome), verdict->measured.c_str());
      ok = ok && verdict->outcome != Outcome::kFail;
    }
  }
  return ok;
}

}  // namespace samya::figures
