// BoundedCounter CRDT baseline vs Samya (DESIGN.md §12, EXPERIMENTS.md).
// Emits BENCH_boundedcounter.json with:
//   - throughput: the Fig 3b family extended with the BoundedCounter
//     baseline — committed tps, latency percentiles and messages per
//     committed op for each system over the same contentious load;
//   - disconnection: one site's whole island (site + app manager + client)
//     cut off for a fixed window, run three ways: seed Samya (the isolated
//     site stalls), Samya with disconnected mode armed (serves from the
//     local pool behind the durable op-log, reconciles on heal), and the
//     BoundedCounter baseline (serves from local rights, merge-reconciles);
//   - crash_mid_window: disconnected-mode Samya with a crash + recover
//     *inside* the isolation window, so reconciliation must replay the
//     op-log from stable storage before folding the epoch.
//
// Every disconnection run audits Eq. 1 continuously and the JSON records
// the verdicts; the binary exits nonzero if any invariant fails, so CI can
// gate on it.
//
// `--smoke` runs the CI shape: 2-minute throughput windows and a 30-second
// disconnection window, same JSON schema.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.h"
#include "harness/chaos.h"
#include "harness/invariant_auditor.h"
#include "harness/parallel_runner.h"

using namespace samya;           // NOLINT
using namespace samya::harness;  // NOLINT

namespace {

struct Shape {
  Duration throughput_window;
  int64_t throughput_tokens;  ///< scarce enough that coordination matters
  Duration disco_duration;    ///< load window of the disconnection runs
  int64_t disco_tokens;  ///< sized so the cut island's pool runs dry mid-window
  Duration isolate_at;
  Duration crash_at;
  Duration recover_at;
  Duration heal_at;
};

constexpr Shape kFull = {Minutes(30), 5000,        Seconds(120),
                         700,         Seconds(20), Seconds(50),
                         Seconds(54), Seconds(90)};
constexpr Shape kSmoke = {Minutes(2),  1200,        Seconds(30),
                          300,         Seconds(5),  Seconds(12),
                          Seconds(14), Seconds(22)};

// ---------------------------------------------------------------------------
// Throughput: Fig 3b family + BoundedCounter.

JsonValue ThroughputSection(const Shape& shape) {
  const SystemKind systems[] = {
      SystemKind::kBoundedCounter, SystemKind::kSamyaMajority,
      SystemKind::kSamyaAny, SystemKind::kDemarcation};

  std::vector<ExperimentOptions> sweep;
  for (SystemKind system : systems) {
    ExperimentOptions opts;
    opts.system = system;
    opts.duration = shape.throughput_window;
    opts.max_tokens = shape.throughput_tokens;
    sweep.push_back(opts);
  }
  const auto results = RunAll(std::move(sweep));

  JsonValue rows = JsonValue::MakeArray();
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::printf(
        "%-38s %9.1f tps  committed=%-8llu rejected=%-7llu p50=%7.2fms "
        "p90=%8.2fms p99=%8.2fms\n",
        SystemName(systems[i]), r.MeanTps(shape.throughput_window),
        static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
        static_cast<unsigned long long>(r.aggregate.rejected),
        r.aggregate.latency.P50() / 1000.0, r.aggregate.latency.P90() / 1000.0,
        r.aggregate.latency.P99() / 1000.0);
    JsonValue o = JsonValue::MakeObject();
    o.Set("system", SystemIdName(systems[i]));
    o.Set("tps", r.MeanTps(shape.throughput_window));
    o.Set("committed", r.aggregate.TotalCommitted());
    o.Set("rejected", r.aggregate.rejected);
    o.Set("p50_ms", r.aggregate.latency.P50() / 1000.0);
    o.Set("p99_ms", r.aggregate.latency.P99() / 1000.0);
    const uint64_t committed = r.aggregate.TotalCommitted();
    o.Set("messages_per_committed",
          committed == 0 ? 0.0
                         : static_cast<double>(r.network.messages_sent) /
                               static_cast<double>(committed));
    rows.Append(std::move(o));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Disconnection sweep.

/// One disconnection run: the standard 5-site layout with site 0's island
/// {site 0, app manager 5, client 10} cut from everything else between
/// `isolate_at` and `heal_at` (plus an optional crash/recover cycle inside
/// the window), audited continuously.
struct DiscoRun {
  std::string label;
  double window_tps = 0;        ///< committed tps inside the cut window
  uint64_t committed = 0;       ///< whole-run committed ops (all sites)
  uint64_t disconnected_epochs = 0;
  uint64_t disconnected_served = 0;
  uint64_t disconnected_rejected = 0;
  uint64_t oplog_appends = 0;
  uint64_t oplog_replayed = 0;
  uint64_t reconciles = 0;
  bool conserved = false;  ///< Eq. 1 exact at the end of the run
  uint64_t violations = 0;
  std::string first_violation;
};

DiscoRun RunDisconnection(SystemKind system, bool disconnected_mode,
                          bool crash_mid_window, const Shape& shape,
                          std::string label) {
  ChaosCase c;
  c.system = system;
  c.seed = 11;
  c.max_tokens = shape.disco_tokens;
  c.duration = shape.disco_duration;
  c.disconnected_mode = disconnected_mode;
  sim::FaultOp iso;
  iso.at = shape.isolate_at;
  iso.kind = sim::FaultOp::Kind::kIsolateSite;
  iso.a = 0;
  iso.groups = {{0, 5, 10}};
  c.schedule.ops.push_back(iso);
  if (crash_mid_window) {
    c.schedule.ops.push_back({shape.crash_at, sim::FaultOp::Kind::kCrash, 0});
    c.schedule.ops.push_back(
        {shape.recover_at, sim::FaultOp::Kind::kRecover, 0});
  }
  c.schedule.ops.push_back({shape.heal_at, sim::FaultOp::Kind::kHeal});

  Experiment e(MakeChaosOptions(c, AuditOptions{}));
  e.Setup();
  const ExperimentResult r = e.Run();

  DiscoRun out;
  out.label = std::move(label);
  out.window_tps = r.throughput.MeanRate(shape.isolate_at, shape.heal_at);
  out.committed = r.aggregate.TotalCommitted();
  if (system == SystemKind::kBoundedCounter) {
    const auto& s = e.bounded_sites()[0]->stats();
    out.disconnected_epochs = s.disconnected_windows;
    out.disconnected_served = s.committed_acquires + s.committed_releases;
    out.reconciles = s.reconciles;
  } else {
    const auto& s = e.samya_sites()[0]->stats();
    out.disconnected_epochs = s.disconnected_epochs;
    out.disconnected_served = s.disconnected_served;
    out.disconnected_rejected = s.disconnected_rejected;
    out.oplog_appends = s.oplog_appends;
    out.oplog_replayed = s.oplog_replayed;
    out.reconciles = s.reconciles;
  }
  out.conserved =
      e.TotalSiteTokens() + e.ServerNetAcquires() == shape.disco_tokens;
  out.violations = r.violations.size();
  if (!r.violations.empty()) {
    out.first_violation =
        r.violations.front().check + ": " + r.violations.front().detail;
  }

  std::printf(
      "%-26s window=%6.1f tps  committed=%-6llu epochs=%llu served=%llu "
      "oplog=%llu/%llu reconciles=%llu conserved=%s violations=%llu\n",
      out.label.c_str(), out.window_tps,
      static_cast<unsigned long long>(out.committed),
      static_cast<unsigned long long>(out.disconnected_epochs),
      static_cast<unsigned long long>(out.disconnected_served),
      static_cast<unsigned long long>(out.oplog_appends),
      static_cast<unsigned long long>(out.oplog_replayed),
      static_cast<unsigned long long>(out.reconciles),
      out.conserved ? "yes" : "NO",
      static_cast<unsigned long long>(out.violations));
  return out;
}

JsonValue DiscoJson(const DiscoRun& d) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("label", d.label);
  o.Set("window_tps", d.window_tps);
  o.Set("committed", d.committed);
  o.Set("disconnected_epochs", d.disconnected_epochs);
  o.Set("disconnected_served", d.disconnected_served);
  o.Set("disconnected_rejected", d.disconnected_rejected);
  o.Set("oplog_appends", d.oplog_appends);
  o.Set("oplog_replayed", d.oplog_replayed);
  o.Set("reconciles", d.reconciles);
  o.Set("conserved", d.conserved);
  o.Set("violations", d.violations);
  if (!d.first_violation.empty()) {
    o.Set("first_violation", d.first_violation);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Shape& shape = smoke ? kSmoke : kFull;
  std::printf("bench_bounded_counter — %s\n",
              smoke ? "BoundedCounter CRDT vs Samya (smoke)"
                    : "BoundedCounter CRDT vs Samya: throughput + "
                      "disconnection");

  JsonValue throughput = ThroughputSection(shape);

  std::printf("\ndisconnection sweep (island {0,5,10} cut %llds-%llds of a "
              "%llds window):\n",
              static_cast<long long>(shape.isolate_at / 1'000'000),
              static_cast<long long>(shape.heal_at / 1'000'000),
              static_cast<long long>(shape.disco_duration / 1'000'000));
  const DiscoRun seed = RunDisconnection(
      SystemKind::kSamyaMajority, false, false, shape, "samya (seed)");
  const DiscoRun dm = RunDisconnection(
      SystemKind::kSamyaMajority, true, false, shape, "samya (disconnected)");
  const DiscoRun crash =
      RunDisconnection(SystemKind::kSamyaMajority, true, true, shape,
                       "samya (crash mid-window)");
  const DiscoRun bc = RunDisconnection(SystemKind::kBoundedCounter, false,
                                       false, shape, "bounded_counter");

  // The §12 claims this artifact gates on: the seed site stalls, the armed
  // site serves and reconciles, the crashed site replays its op-log, the
  // CRDT never stops — and *every* run conserves Eq. 1 with a clean audit.
  const bool ok =
      seed.disconnected_served == 0 && dm.disconnected_served > 0 &&
      dm.oplog_appends > 0 && dm.reconciles >= 1 &&
      crash.oplog_replayed > 0 && crash.reconciles >= 1 &&
      bc.disconnected_epochs >= 1 && bc.reconciles >= 1 &&
      seed.conserved && dm.conserved && crash.conserved && bc.conserved &&
      seed.violations + dm.violations + crash.violations + bc.violations == 0;

  JsonValue disco = JsonValue::MakeObject();
  disco.Set("isolate_at_s",
            static_cast<int64_t>(shape.isolate_at / 1'000'000));
  disco.Set("heal_at_s", static_cast<int64_t>(shape.heal_at / 1'000'000));
  disco.Set("max_tokens", shape.disco_tokens);
  disco.Set("samya_seed", DiscoJson(seed));
  disco.Set("samya_disconnected", DiscoJson(dm));
  disco.Set("samya_crash_mid_window", DiscoJson(crash));
  disco.Set("bounded_counter", DiscoJson(bc));

  JsonValue root = JsonValue::MakeObject();
  root.Set("mode", smoke ? "smoke" : "full");
  root.Set("throughput", std::move(throughput));
  root.Set("disconnection", std::move(disco));
  root.Set("ok", ok);

  FILE* out = std::fopen("BENCH_boundedcounter.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_boundedcounter.json\n");
    return 1;
  }
  const std::string text = JsonDump(root, /*indent=*/2);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("\nwrote BENCH_boundedcounter.json (invariants %s)\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
