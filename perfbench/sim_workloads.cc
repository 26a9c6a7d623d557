// The simulator workloads, fig3b and contended-rw, driven through
// harness::Experiment, plus the simulator-layer probe and metrics that the
// real-loopback workload's simulated prediction reuses.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common/token_api.h"
#include "core/messages.h"
#include "harness/experiment.h"
#include "perfbench.h"

namespace perfbench {

using samya::harness::Experiment;
using samya::harness::ExperimentOptions;
using samya::harness::ExperimentResult;

SimLayerProbe::SimLayerProbe(samya::sim::Network* net,
                             const samya::obs::EventLoopProfiler* profiler,
                             std::vector<samya::sim::NodeId> client_ids,
                             SpanRecorder* rec)
    : net_(net),
      profiler_(profiler),
      client_ids_(std::move(client_ids)),
      rec_(rec) {
  rec_->set_context_fn(&SimLayerProbe::Context, this);
  net_->set_message_tap([this](samya::SimTime, samya::sim::NodeId from,
                               samya::sim::NodeId, uint32_t type, size_t bytes,
                               samya::sim::TapEvent ev) {
    if (ev == samya::sim::TapEvent::kDelivered) {
      delivery_event_ = profiler_->events();
      delivery_type_ = static_cast<int32_t>(type);
      return;
    }
    if (ev != samya::sim::TapEvent::kSent) return;
    ++msgs_sent;
    bytes_sent += bytes;
    if (type == samya::core::kMsgReadQuery ||
        type == samya::core::kMsgReadReply) {
      ++read_msgs;
    }
    if (type == samya::kMsgTokenRequest &&
        std::find(client_ids_.begin(), client_ids_.end(), from) !=
            client_ids_.end()) {
      ++client_requests;
    }
  });
}

SimLayerProbe::~SimLayerProbe() {
  net_->set_message_tap(nullptr);
  rec_->set_context_fn(nullptr, nullptr);
}

int32_t SimLayerProbe::Context(const void* self) {
  const auto* p = static_cast<const SimLayerProbe*>(self);
  return p->profiler_->events() == p->delivery_event_ ? p->delivery_type_
                                                       : kTimerContext;
}

void AddSimLayerMetrics(const SimCounts& c,
                        const samya::obs::EventLoopProfiler& profiler,
                        const SimLayerProbe& probe, const SpanRecorder& rec,
                        double untraced_run_s, Report* out) {
  // Handler wall time by wire type, from the loop profiler's export.
  const samya::JsonValue prof = profiler.ToJson();
  std::map<int64_t, int64_t> type_ns;
  int64_t handler_ns = 0;
  if (const samya::JsonValue* rows = prof.Find("by_type")) {
    for (const samya::JsonValue& row : rows->as_array()) {
      const int64_t ns = row.GetInt("ns", 0);
      type_ns[row.GetInt("type", -1)] += ns;
      handler_ns += ns;
    }
  }
  auto ns_of = [&](int64_t lo, int64_t hi) {
    int64_t sum = 0;
    for (int64_t t = lo; t <= hi; ++t) {
      auto it = type_ns.find(t);
      if (it != type_ns.end()) sum += it->second;
    }
    return static_cast<double>(sum);
  };
  const double events = static_cast<double>(prof.GetInt("events", 0));
  const double loop_ns = static_cast<double>(prof.GetInt("loop_ns", 0));
  const double timer_ns = static_cast<double>(prof.GetInt("timer_ns", 0));
  const double timers = static_cast<double>(prof.GetInt("timer_count", 0));
  const double ops = static_cast<double>(c.committed);
  const double instances = static_cast<double>(c.proactive + c.reactive);

  out->Add("sim.events_per_s", Ratio(static_cast<double>(c.events), untraced_run_s),
           "1/s");
  out->Add("sim.events_per_op", Ratio(static_cast<double>(c.events), ops), "count");
  out->Add("sim.loop_self_ns_per_event",
           Ratio(loop_ns - static_cast<double>(handler_ns) - timer_ns, events), "ns");
  out->Add("sim.timer_ns_per_fire", Ratio(timer_ns, timers), "ns");
  out->Add("sim.timers_per_op", Ratio(timers, ops), "count");
  out->Add("net.msgs_per_op", Ratio(static_cast<double>(probe.msgs_sent), ops),
           "count");
  out->Add("net.bytes_per_op", Ratio(static_cast<double>(probe.bytes_sent), ops),
           "bytes");
  out->Add("core.request.ns_per_op",
           Ratio(ns_of(samya::kMsgTokenRequest, samya::kMsgTokenBatchRequest), ops),
           "ns");

  out->Add("core.avantan.instances_per_kop", Ratio(instances * 1000, ops), "count");
  out->Add("core.avantan.proactive_frac",
           Ratio(static_cast<double>(c.proactive), instances), "ratio");
  out->Add("core.avantan.abort_frac",
           Ratio(static_cast<double>(c.aborted),
                 static_cast<double>(c.completed + c.aborted)),
           "ratio");
  out->Add("core.avantan.frozen_frac",
           Ratio(static_cast<double>(c.frozen_us),
                 static_cast<double>(c.sites) * static_cast<double>(c.span_us)),
           "ratio");
  out->Add("core.avantan.queued_per_kop",
           Ratio(static_cast<double>(c.queued) * 1000, ops), "count");
  // Avantan handler time minus the decorated calls made inside it (Algorithm
  // 2, storage writes, prediction), per instance.
  double nested_ns = 0;
  for (Layer l : {Layer::kStorage, Layer::kReallocate, Layer::kPredict,
                  Layer::kTrain}) {
    nested_ns += static_cast<double>(rec.AvantanTotals(l).ns);
  }
  out->Add("core.avantan.self_ns_per_instance",
           Ratio(ns_of(200, 207) - nested_ns, instances), "ns");

  const double reads = static_cast<double>(c.committed_reads);
  out->Add("core.read.msgs_per_read",
           Ratio(static_cast<double>(probe.read_msgs), reads), "count");
  out->Add("core.read.ns_per_read",
           Ratio(ns_of(samya::core::kMsgReadQuery, samya::core::kMsgReadReply),
                 reads),
           "ns");

  const LayerTotals realloc = rec.Totals(Layer::kReallocate);
  out->Add("core.reallocate.ns_per_call",
           Ratio(static_cast<double>(realloc.ns), static_cast<double>(realloc.count)),
           "ns");
  out->Add("core.reallocate.calls_per_instance",
           Ratio(static_cast<double>(realloc.count), instances), "count");

  const LayerTotals predict = rec.Totals(Layer::kPredict);
  out->Add("predict.ns_per_call",
           Ratio(static_cast<double>(predict.ns), static_cast<double>(predict.count)),
           "ns");
  out->Add("predict.calls_per_op", Ratio(static_cast<double>(predict.count), ops),
           "count");
  out->Add("predict.train_s",
           static_cast<double>(rec.Totals(Layer::kTrain).ns) / 1e9, "s");

  const LayerTotals storage = rec.Totals(Layer::kStorage);
  out->Add("storage.writes_per_op", Ratio(static_cast<double>(storage.count), ops),
           "count");
  // Writes made while handling Avantan messages, including the commits of
  // requests drained from the queue when an instance ends.
  out->Add("storage.writes_per_instance",
           Ratio(static_cast<double>(rec.AvantanTotals(Layer::kStorage).count),
                 instances),
           "count");
  out->Add("storage.ns_per_write",
           Ratio(static_cast<double>(storage.ns), static_cast<double>(storage.count)),
           "ns");

  const double attempted = static_cast<double>(c.attempted);
  out->Add("client.attempts_per_op",
           Ratio(static_cast<double>(probe.client_requests), attempted), "count");
}

namespace {

/// Simulated span of one repetition (more than one compressed trace day).
constexpr int kSpanMinutes = 30;
/// A run's protocol outcome pools this many repetitions, each on its own
/// seed derived from the run's seed.
constexpr size_t kSubSeeds = 6;
/// After those, repetitions cycle through the same seeds (each must
/// reproduce its first outcome exactly) until the measuring time is used
/// up; every repetition is one set-up and run time sample.
constexpr size_t kMaxReps = 120;

ExperimentOptions OptionsFor(const std::string& workload, uint64_t seed,
                             size_t sub_seed) {
  // samya_bench's defaults: Samya w/ Avantan[(n+1)/2], 5 sites, one
  // trace-driven open-loop client per region, serial loop, M_e = 5000.
  // The seed drives request arrivals, the operation mix and network jitter;
  // the demand trace keeps its canonical seed, because its shape is what
  // makes this the Fig 3b workload (another trace seed moves committed
  // throughput and p99 by about 10%).
  ExperimentOptions opts;
  opts.duration = samya::Minutes(kSpanMinutes);
  opts.seed = seed * kSubSeeds + sub_seed;
  if (workload == "contended-rw") {
    opts.max_tokens = 500;
    opts.read_ratio = 0.2;
  }
  return opts;
}

/// Every protocol outcome of a run; repetitions and traced runs of the same
/// seed must reproduce it exactly.
struct Outcome {
  uint64_t acquires = 0;
  uint64_t releases = 0;
  uint64_t reads = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  uint64_t sent = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t proactive = 0;
  uint64_t reactive = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t queued = 0;
  int64_t frozen_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double acquire_p99_us = 0;
  bool eq1 = false;

  bool operator==(const Outcome&) const = default;
  uint64_t committed() const { return acquires + releases + reads; }
  /// Gave up after retries, or still unanswered when the run ended.
  uint64_t failed() const { return sent - committed() - rejected; }
};

struct Rep {
  Outcome outcome;
  samya::Histogram latency;  ///< commit latency of all committed ops, µs
  samya::Histogram acquire_latency;
  double setup_s = 0;
  double run_s = 0;
};

Outcome Collect(const Experiment& ex, const ExperimentResult& r) {
  Outcome o;
  o.acquires = r.aggregate.committed_acquires;
  o.releases = r.aggregate.committed_releases;
  o.reads = r.aggregate.committed_reads;
  o.rejected = r.aggregate.rejected;
  o.dropped = r.aggregate.dropped;
  o.sent = r.aggregate.sent;
  o.events = r.events_executed;
  o.messages = r.network.messages_sent;
  o.proactive = r.proactive_redistributions;
  o.reactive = r.reactive_redistributions;
  o.completed = r.instances_completed;
  o.aborted = r.instances_aborted;
  for (const samya::core::Site* site : ex.samya_sites()) {
    o.queued += site->stats().requests_queued;
  }
  o.frozen_us = r.total_site_frozen_time;
  o.p50_us = r.aggregate.latency.P50();
  o.p99_us = r.aggregate.latency.P99();
  o.acquire_p99_us = r.aggregate.acquire_latency.P99();
  o.eq1 = ex.TotalSiteTokens() + ex.ServerNetAcquires() == ex.options().max_tokens;
  return o;
}

/// One run of the workload. With `rec`, the run is traced: loop profiler,
/// message tap, and the storage / predictor / reallocator decorators are
/// attached, and the per-layer metrics go to `layers`.
Rep RunRep(ExperimentOptions opts, SpanRecorder* rec, double untraced_run_s,
           Report* layers) {
  if (rec != nullptr) {
    opts.obs.profiler = true;
    InstallSiteDecorators(&opts.site_template, 288, rec);
  }
  Rep rep;
  const double t0 = WallSeconds();
  Experiment ex(opts);
  ex.Setup();
  rep.setup_s = WallSeconds() - t0;

  std::vector<std::unique_ptr<TimedStorage>> storages;
  std::unique_ptr<SimLayerProbe> probe;
  if (rec != nullptr) {
    for (samya::core::Site* site : ex.samya_sites()) {
      storages.push_back(std::make_unique<TimedStorage>(
          ex.cluster().StorageFor(site->id()), rec, site->id()));
      site->set_storage(storages.back().get());
    }
    probe = std::make_unique<SimLayerProbe>(
        &ex.cluster().net(), ex.observability()->profiler(), ex.client_ids(), rec);
  }

  const double t1 = WallSeconds();
  const ExperimentResult r = ex.Run();
  rep.run_s = WallSeconds() - t1;
  rep.outcome = Collect(ex, r);
  rep.latency = r.aggregate.latency;
  rep.acquire_latency = r.aggregate.acquire_latency;

  if (rec != nullptr) {
    const Outcome& o = rep.outcome;
    SimCounts c;
    c.committed = o.committed();
    c.committed_reads = o.reads;
    c.attempted = o.sent;
    c.events = o.events;
    c.proactive = o.proactive;
    c.reactive = o.reactive;
    c.completed = o.completed;
    c.aborted = o.aborted;
    c.queued = o.queued;
    c.frozen_us = o.frozen_us;
    c.sites = opts.num_sites;
    c.span_us = opts.duration;
    AddSimLayerMetrics(c, *ex.observability()->profiler(), *probe, *rec,
                       untraced_run_s, layers);
  }
  return rep;
}

/// samya_bench's canonical Fig 3b run (20 simulated minutes, seed 42) with
/// its output formatting, so perfbench/run.py can compare the two strings.
void CanonicalCrossCheck(Report* report) {
  ExperimentOptions opts;
  opts.duration = samya::Minutes(20);
  Experiment ex(opts);
  ex.Setup();
  const ExperimentResult r = ex.Run();
  char buf[64];
  report->Fact("canonical_committed", std::to_string(r.aggregate.TotalCommitted()));
  std::snprintf(buf, sizeof(buf), "%.2f", r.aggregate.latency.P50() / 1000.0);
  report->Fact("canonical_p50_ms", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", r.aggregate.latency.P99() / 1000.0);
  report->Fact("canonical_p99_ms", buf);
  report->Gate("canonical_eq1_exact",
               ex.TotalSiteTokens() + ex.ServerNetAcquires() == opts.max_tokens);
}

void PrintOutcome(const char* label, const Rep& rep) {
  const Outcome& o = rep.outcome;
  std::fprintf(stderr,
               "%s: committed %llu (reads %llu), rejected %llu, failed %llu, "
               "p50 %.3f ms, p99 %.3f ms, %llu events, %llu messages, "
               "setup %.3f s, run %.3f s\n",
               label, static_cast<unsigned long long>(o.committed()),
               static_cast<unsigned long long>(o.reads),
               static_cast<unsigned long long>(o.rejected),
               static_cast<unsigned long long>(o.failed()), o.p50_us / 1000,
               o.p99_us / 1000, static_cast<unsigned long long>(o.events),
               static_cast<unsigned long long>(o.messages), rep.setup_s,
               rep.run_s);
}

}  // namespace

Report RunSimWorkload(const Args& args) {
  Report report;
  if (args.workload == "fig3b") CanonicalCrossCheck(&report);

  if (args.trace) {
    // One repetition, on the run's first derived seed, untraced then traced.
    const ExperimentOptions opts = OptionsFor(args.workload, args.seed, 0);
    const Rep base = RunRep(opts, nullptr, 0, nullptr);
    PrintOutcome("untraced", base);
    SpanRecorder rec;
    const Rep traced = RunRep(opts, &rec, base.run_s, &report);
    PrintOutcome("traced", traced);
    AddRtLayersNotExercised(&report);
    report.Add("client.rejected_frac",
               Ratio(static_cast<double>(base.outcome.rejected),
                     static_cast<double>(base.outcome.sent)),
               "ratio");
    report.Add("client.dropped_frac",
               Ratio(static_cast<double>(base.outcome.failed()),
                     static_cast<double>(base.outcome.sent)),
               "ratio");
    report.Add("trace.run_s_ratio", Ratio(traced.run_s, base.run_s), "ratio");
    report.Add("trace.p50_delta_ms",
               (traced.outcome.p50_us - base.outcome.p50_us) / 1000, "ms");
    report.Gate("eq1_exact", base.outcome.eq1 && traced.outcome.eq1);
    report.Gate("traced_reproduces_untraced", traced.outcome == base.outcome);
    report.attempted = base.outcome.sent;
    report.failed = base.outcome.failed();
    WriteSpans(args, rec);
    return report;
  }

  const double start = WallSeconds();
  std::vector<Rep> reps;
  do {
    const size_t sub_seed = reps.size() % kSubSeeds;
    reps.push_back(
        RunRep(OptionsFor(args.workload, args.seed, sub_seed), nullptr, 0, nullptr));
    PrintOutcome("rep", reps.back());
  } while (reps.size() < kSubSeeds ||
           (WallSeconds() - start < args.seconds && reps.size() < kMaxReps));

  // Protocol outcome: the first kSubSeeds repetitions pooled. Set-up time:
  // the median over every repetition. Run time: the fastest repetition.
  // This machine's speed drifts by up to half with load from outside the
  // process, in phases of seconds, and that drift is all user time (no page
  // faults or system time). A slower phase only ever adds time, so the
  // fastest repetition is the least disturbed measure of the program's own
  // cost. Over ten seeds in a busy hour, the spread of per-run fastest
  // repetitions was 0.06 of their median on fig3b, against 0.23 for
  // per-run medians.
  Outcome pooled;
  samya::Histogram latency, acquire_latency;
  bool eq1 = true;
  bool repeatable = true;
  std::vector<double> setup_s, run_s;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    eq1 = eq1 && rep.outcome.eq1;
    if (i < kSubSeeds) {
      pooled.acquires += rep.outcome.acquires;
      pooled.releases += rep.outcome.releases;
      pooled.reads += rep.outcome.reads;
      pooled.rejected += rep.outcome.rejected;
      pooled.sent += rep.outcome.sent;
      latency.Merge(rep.latency);
      acquire_latency.Merge(rep.acquire_latency);
    } else {
      repeatable = repeatable && rep.outcome == reps[i % kSubSeeds].outcome;
    }
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
  }
  report.Gate("eq1_exact", eq1);
  report.Gate("repetitions_identical", repeatable);
  report.attempted = pooled.sent;
  report.failed = pooled.failed();

  const double committed = static_cast<double>(pooled.committed());
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("run_s", *std::min_element(run_s.begin(), run_s.end()), "s");
  report.Add("committed_tps", committed / (kSubSeeds * kSpanMinutes * 60.0),
             "ops/s");
  report.Add("latency_p50_ms", latency.P50() / 1000, "ms");
  report.Add("latency_p99_ms", latency.P99() / 1000, "ms");
  report.Add("acquire_p99_ms", acquire_latency.P99() / 1000, "ms");
  report.Add("committed_frac", Ratio(committed, static_cast<double>(pooled.sent)),
             "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Fact("reps", std::to_string(reps.size()));
  return report;
}

}  // namespace perfbench
