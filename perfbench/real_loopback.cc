// The real-loopback workload: the 5-region Samya deployment on
// rt::RealCluster (one loop thread per node, CRC-framed localhost UDP,
// netem on the paper latency matrix), driven at a fixed offered rate by a
// benchmark-owned open-loop client that stamps latency from due times.
// The same deployment and schedule also run on sim::Cluster: that run is
// the prediction the real run is gated and compared against.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/histogram.h"
#include "common/random.h"
#include "common/token_api.h"
#include "core/app_manager.h"
#include "core/site.h"
#include "harness/experiment.h"
#include "perfbench.h"
#include "rt/real_cluster.h"
#include "sim/cluster.h"

namespace perfbench {

namespace {

using samya::Duration;
using samya::Histogram;
using samya::SimTime;
using samya::TokenOp;
using samya::rt::NodeId;

constexpr int kRegions = 5;
/// Offered load, all regions together (Poisson arrivals per region).
constexpr double kOfferedPerSecond = 20000;
/// Share of operations that release a token the client holds.
constexpr double kReleaseShare = 0.5;
/// 10,000 tokens per site: far more than a region's random walk of
/// acquires and releases can draw down in one run, so no pool runs dry.
constexpr int64_t kMaxTokens = 50000;
/// The schedule starts this long after the deployment starts.
constexpr Duration kLead = samya::Millis(200);
/// Run time past the last scheduled request before the quiesce poll.
constexpr Duration kDrain = samya::Seconds(1);
/// Extra deployment set-ups per untraced run, for the set-up time median.
constexpr int kSetupSamples = 40;

struct ScriptedOp {
  Duration due = 0;  ///< offset from the schedule origin
  TokenOp op = TokenOp::kAcquire;
};
using Script = std::vector<ScriptedOp>;

std::vector<Script> MakeScripts(uint64_t seed, Duration window) {
  std::vector<Script> scripts(kRegions);
  const double mean_gap_us = 1e6 * kRegions / kOfferedPerSecond;
  samya::Rng root = samya::Rng(seed).Fork(0x6c6f6f70);  // "loop"
  for (int r = 0; r < kRegions; ++r) {
    samya::Rng rng = root.Fork(static_cast<uint64_t>(r));
    double t = 0;
    int64_t held = 0;
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) * mean_gap_us;
      if (t >= static_cast<double>(window)) break;
      const bool release = held > 0 && rng.NextDouble() < kReleaseShare;
      held += release ? -1 : 1;
      scripts[static_cast<size_t>(r)].push_back(
          {static_cast<Duration>(t), release ? TokenOp::kRelease : TokenOp::kAcquire});
    }
  }
  return scripts;
}

/// The real run's latency percentiles are taken per window of this length
/// (by due time), and the least disturbed window is reported. Load from
/// outside the process only ever adds latency here: on this 4-vCPU virtual
/// machine a busy host lifted per-second p99s from about 9.5 ms to 12-28 ms
/// for most of a run, while the best second of each run stayed at 9.4-9.6.
/// Each window holds about 20,000 requests, about 200 of them beyond p99.
constexpr Duration kStatWindow = samya::Seconds(1);

struct ClientStats {
  Histogram latency;          ///< due time -> committed response, µs
  Histogram acquire_latency;  ///< the same, acquires only
  Histogram issue_lag;        ///< due time -> actual send, µs
  std::vector<Histogram> latency_by_window;  ///< `latency`, per kStatWindow
  std::vector<Histogram> acquire_by_window;
  uint64_t scheduled = 0;
  uint64_t issued = 0;
  uint64_t committed = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;      ///< answered with neither commit nor rejection
  uint64_t unfinished = 0;  ///< not issued, or unanswered (filled at read-back)
};

Histogram& WindowOf(std::vector<Histogram>* windows, size_t window) {
  if (windows->size() <= window) windows->resize(window + 1);
  return (*windows)[window];
}

/// The lowest, over windows, of each window's percentile `p`.
double BestWindow(const std::vector<Histogram>& windows, double p) {
  double best = 0;
  bool any = false;
  for (const Histogram& h : windows) {
    if (h.count() == 0) continue;
    best = any ? std::min(best, h.Percentile(p)) : h.Percentile(p);
    any = true;
  }
  return best;
}

/// \brief Open-loop client that speaks the token API to its region's app
/// manager. Each request is timed from when it was due, so a late issue
/// timer counts against latency, and how late the issue ran is reported
/// separately. No retries: a request unanswered at the end is a failure.
class BenchClient : public samya::rt::Node {
 public:
  BenchClient(NodeId id, samya::rt::Region region, NodeId server, Script script)
      : Node(id, region), server_(server), script_(std::move(script)) {
    next_request_id_ = (static_cast<uint64_t>(id) << 40) + 1;
    stats_.scheduled = script_.size();
  }

  void Start() override { ArmIssueTimer(); }

  void HandleTimer(uint64_t) override {
    const SimTime now = Now();
    while (next_ < script_.size() && Due(next_) <= now) {
      const ScriptedOp& op = script_[next_];
      samya::TokenRequest req;
      req.request_id = next_request_id_++;
      req.op = op.op;
      req.amount = 1;
      pending_.emplace(req.request_id, next_);
      stats_.issue_lag.Record(now - Due(next_));
      ++stats_.issued;
      ++next_;
      scratch_.Clear();
      req.EncodeTo(scratch_);
      Send(server_, samya::kMsgTokenRequest, scratch_);
    }
    ArmIssueTimer();
  }

  void HandleMessage(NodeId, uint32_t type, samya::BufferReader& r) override {
    if (type != samya::kMsgTokenResponse) return;
    auto resp = samya::TokenResponse::DecodeFrom(r);
    if (!resp.ok()) return;
    auto it = pending_.find(resp->request_id);
    if (it == pending_.end()) return;
    const size_t index = it->second;
    pending_.erase(it);
    const Duration latency = Now() - Due(index);
    const auto window = static_cast<size_t>(script_[index].due / kStatWindow);
    switch (resp->status) {
      case samya::TokenStatus::kCommitted:
        ++stats_.committed;
        stats_.latency.Record(latency);
        WindowOf(&stats_.latency_by_window, window).Record(latency);
        if (script_[index].op == TokenOp::kAcquire) {
          stats_.acquire_latency.Record(latency);
          WindowOf(&stats_.acquire_by_window, window).Record(latency);
        }
        break;
      case samya::TokenStatus::kRejected:
        ++stats_.rejected;
        break;
      default:
        ++stats_.failed;
        break;
    }
  }

  /// Scheduled requests not yet answered (unissued ones included).
  size_t outstanding() const { return script_.size() - next_ + pending_.size(); }

  ClientStats Snapshot() const {
    ClientStats s = stats_;
    s.unfinished = outstanding();
    return s;
  }

 private:
  SimTime Due(size_t index) const { return kLead + script_[index].due; }

  void ArmIssueTimer() {
    if (next_ >= script_.size()) return;
    SetTimer(std::max<Duration>(0, Due(next_) - Now()), 0);
  }

  NodeId server_;
  Script script_;
  size_t next_ = 0;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, size_t> pending_;  // request id -> script index
  ClientStats stats_;
  samya::BufferWriter scratch_;
};

ClientStats Sum(const std::vector<ClientStats>& all) {
  ClientStats sum;
  for (const ClientStats& s : all) {
    sum.latency.Merge(s.latency);
    sum.acquire_latency.Merge(s.acquire_latency);
    sum.issue_lag.Merge(s.issue_lag);
    for (size_t w = 0; w < s.latency_by_window.size(); ++w) {
      WindowOf(&sum.latency_by_window, w).Merge(s.latency_by_window[w]);
    }
    for (size_t w = 0; w < s.acquire_by_window.size(); ++w) {
      WindowOf(&sum.acquire_by_window, w).Merge(s.acquire_by_window[w]);
    }
    sum.scheduled += s.scheduled;
    sum.issued += s.issued;
    sum.committed += s.committed;
    sum.rejected += s.rejected;
    sum.failed += s.failed;
    sum.unfinished += s.unfinished;
  }
  return sum;
}

struct Deployment {
  std::vector<samya::core::Site*> sites;
  std::vector<BenchClient*> clients;
};

/// Sites 0..4, then one app manager per region, then one client per region:
/// the node-id layout of harness::Experiment and harness::RealHarness. With
/// `rec`, every node's handlers run inside spans (real backend only).
template <typename Cluster>
Deployment Build(Cluster& cluster, const std::vector<Script>& scripts,
                 const samya::core::SiteOptions& site_template, SpanRecorder* rec) {
  Deployment d;
  std::vector<NodeId> site_ids;
  for (int i = 0; i < kRegions; ++i) site_ids.push_back(i);
  for (int i = 0; i < kRegions; ++i) {
    samya::core::SiteOptions sopts = site_template;
    sopts.sites = site_ids;
    sopts.initial_tokens = samya::harness::InitialSiteTokens(kMaxTokens, kRegions, i);
    sopts.seasonal_period = 288;
    sopts.protocol = samya::core::Protocol::kAvantanMajority;
    // Reactive only, as in harness::RealHarness: the scripted load carries
    // no training trace.
    sopts.enable_prediction = false;
    const auto region = samya::rt::kPaperRegions[static_cast<size_t>(i)];
    samya::core::Site* site =
        rec != nullptr
            ? cluster.template AddNode<Timed<samya::core::Site, Layer::kSite>>(
                  region, rec, sopts)
            : cluster.template AddNode<samya::core::Site>(region, sopts);
    site->set_storage(cluster.StorageFor(site->id()));
    d.sites.push_back(site);
  }
  for (int r = 0; r < kRegions; ++r) {
    samya::core::AppManagerOptions aopts;
    aopts.sites.push_back(r);
    for (int i = 0; i < kRegions; ++i) {
      if (i != r) aopts.sites.push_back(i);
    }
    const auto region = samya::rt::kPaperRegions[static_cast<size_t>(r)];
    if (rec != nullptr) {
      cluster.template AddNode<Timed<samya::core::AppManager, Layer::kAppManager>>(
          region, rec, aopts);
    } else {
      cluster.template AddNode<samya::core::AppManager>(region, aopts);
    }
  }
  for (int r = 0; r < kRegions; ++r) {
    const auto region = samya::rt::kPaperRegions[static_cast<size_t>(r)];
    const NodeId app_manager = kRegions + r;
    const Script& script = scripts[static_cast<size_t>(r)];
    d.clients.push_back(
        rec != nullptr
            ? cluster.template AddNode<Timed<BenchClient, Layer::kClient>>(
                  region, rec, app_manager, script)
            : cluster.template AddNode<BenchClient>(region, app_manager, script));
  }
  return d;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- The simulated prediction ----------------------------------------------

struct Prediction {
  ClientStats clients;
  uint64_t messages = 0;
  bool eq1 = false;
  double run_s = 0;
};

/// Runs the deployment and schedule on the serial simulator. With `rec`,
/// attaches the loop profiler, the message tap and the decorators, and adds
/// the simulator-side per-layer metrics to `layers`.
Prediction Predict(uint64_t seed, const std::vector<Script>& scripts,
                   Duration window, SpanRecorder* rec, double untraced_run_s,
                   Report* layers) {
  samya::core::SiteOptions site_template;
  if (rec != nullptr) InstallSiteDecorators(&site_template, 288, rec);
  samya::sim::Cluster cluster(seed);
  samya::obs::EventLoopProfiler profiler;
  if (rec != nullptr) {
    cluster.net().set_observability(nullptr, nullptr, &profiler);
    cluster.env().set_profiler(&profiler);
  }
  const Deployment d = Build(cluster, scripts, site_template, nullptr);
  std::vector<std::unique_ptr<TimedStorage>> storages;
  std::unique_ptr<SimLayerProbe> probe;
  if (rec != nullptr) {
    std::vector<NodeId> client_ids;
    for (const BenchClient* c : d.clients) client_ids.push_back(c->id());
    for (samya::core::Site* site : d.sites) {
      storages.push_back(std::make_unique<TimedStorage>(
          cluster.StorageFor(site->id()), rec, site->id()));
      site->set_storage(storages.back().get());
    }
    probe = std::make_unique<SimLayerProbe>(&cluster.net(), &profiler,
                                            std::move(client_ids), rec);
  }

  const double t0 = WallSeconds();
  cluster.StartAll();
  cluster.RunUntil(kLead + window + kDrain);
  Prediction p;
  p.run_s = WallSeconds() - t0;

  std::vector<ClientStats> per_client;
  for (const BenchClient* c : d.clients) per_client.push_back(c->Snapshot());
  p.clients = Sum(per_client);
  p.messages = cluster.net().stats().messages_sent;
  int64_t pooled = 0;
  int64_t held = 0;
  SimCounts counts;
  for (const samya::core::Site* site : d.sites) {
    const samya::core::SiteStats& s = site->stats();
    pooled += site->tokens_left();
    held += static_cast<int64_t>(s.committed_acquires) -
            static_cast<int64_t>(s.committed_releases);
    counts.committed_reads += s.committed_reads;
    counts.proactive += s.proactive_redistributions;
    counts.reactive += s.reactive_redistributions;
    counts.completed += s.instances_completed;
    counts.aborted += s.instances_aborted;
    counts.queued += s.requests_queued;
    counts.frozen_us += s.time_frozen;
  }
  p.eq1 = pooled + held == kMaxTokens;
  if (rec != nullptr) {
    counts.committed = p.clients.committed;
    counts.attempted = p.clients.issued;
    counts.events = cluster.TotalEventsExecuted();
    counts.sites = kRegions;
    counts.span_us = window;
    AddSimLayerMetrics(counts, profiler, *probe, *rec, untraced_run_s, layers);
  }
  return p;
}

// --- The real backend --------------------------------------------------------

struct RealRun {
  ClientStats clients;
  samya::rt::RealNetStats net;
  bool eq1 = false;
  bool pools_nonnegative = true;
  double setup_s = 0;
  double run_s = 0;
  double loop_cpu_s = 0;  ///< CPU of the node loop threads over the run
};

samya::rt::NetemConfig Netem(uint64_t seed) {
  samya::rt::NetemConfig netem;  // the paper's 5-region latency matrix
  netem.seed = seed;
  return netem;
}

/// Deployment build + RealCluster::Start (sockets bound, loop threads
/// spawned). Waiting for the new threads' first run is left out: that is
/// the host scheduler's latency, which swings with load from outside.
double SetupOnce(uint64_t seed, const std::vector<Script>& scripts) {
  const double t0 = WallSeconds();
  samya::rt::RealCluster cluster(Netem(seed));
  Build(cluster, scripts, samya::core::SiteOptions(), nullptr);
  cluster.Start();
  const double setup_s = WallSeconds() - t0;
  cluster.Shutdown();  // long before kLead: no request was ever issued
  return setup_s;
}

RealRun RunReal(uint64_t seed, const std::vector<Script>& scripts,
                Duration window, SpanRecorder* rec) {
  RealRun run;
  const double t0 = WallSeconds();
  samya::rt::RealCluster cluster(Netem(seed));
  const Deployment d = Build(cluster, scripts, samya::core::SiteOptions(), rec);
  cluster.Start();
  run.setup_s = WallSeconds() - t0;

  const double t1 = WallSeconds();
  const size_t nodes = cluster.num_nodes();
  std::vector<double> cpu_start(nodes, 0), cpu_end(nodes, 0);
  for (size_t i = 0; i < nodes; ++i) {
    cluster.Post(static_cast<NodeId>(i),
                 [&cpu_start, i] { cpu_start[i] = ThreadCpuSeconds(); });
  }
  const SimTime end = kLead + window + kDrain;
  const SimTime now = cluster.NowUs();
  if (end > now) cluster.RunFor(end - now);

  // Quiesce, as harness::RealHarness does: Eq. 1 is exact only with no
  // request in flight and no site frozen mid-redistribution.
  for (int round = 0; round < 30; ++round) {
    std::vector<size_t> busy(nodes, 0);
    for (BenchClient* c : d.clients) {
      cluster.Post(c->id(), [&busy, c] { busy[c->id()] = c->outstanding(); });
    }
    for (samya::core::Site* s : d.sites) {
      cluster.Post(s->id(), [&busy, s] {
        busy[s->id()] = s->frozen() || s->queue_depth() > 0 ? 1 : 0;
      });
    }
    cluster.Barrier();
    if (std::all_of(busy.begin(), busy.end(), [](size_t v) { return v == 0; })) {
      break;
    }
    cluster.RunFor(samya::Millis(100));
  }

  std::vector<ClientStats> per_client(d.clients.size());
  for (size_t i = 0; i < d.clients.size(); ++i) {
    BenchClient* c = d.clients[i];
    cluster.Post(c->id(), [&per_client, i, c] { per_client[i] = c->Snapshot(); });
  }
  std::vector<int64_t> pooled(d.sites.size(), 0), held(d.sites.size(), 0);
  for (size_t i = 0; i < d.sites.size(); ++i) {
    samya::core::Site* s = d.sites[i];
    cluster.Post(s->id(), [&pooled, &held, i, s] {
      pooled[i] = s->tokens_left();
      held[i] = static_cast<int64_t>(s->stats().committed_acquires) -
                static_cast<int64_t>(s->stats().committed_releases);
    });
  }
  for (size_t i = 0; i < nodes; ++i) {
    cluster.Post(static_cast<NodeId>(i),
                 [&cpu_end, i] { cpu_end[i] = ThreadCpuSeconds(); });
  }
  cluster.Barrier();
  run.run_s = WallSeconds() - t1;
  cluster.Shutdown();

  run.clients = Sum(per_client);
  run.net = cluster.stats();
  int64_t total = 0;
  for (size_t i = 0; i < d.sites.size(); ++i) {
    total += pooled[i] + held[i];
    run.pools_nonnegative = run.pools_nonnegative && pooled[i] >= 0;
  }
  run.eq1 = total == kMaxTokens;
  for (size_t i = 0; i < nodes; ++i) run.loop_cpu_s += cpu_end[i] - cpu_start[i];
  return run;
}

void PrintRun(const char* label, const ClientStats& c, double run_s) {
  std::fprintf(stderr,
               "%s: issued %llu/%llu, committed %llu, rejected %llu, failed %llu, "
               "unfinished %llu, p50 %.3f ms, p99 %.3f ms, issue lag p99 %.3f ms, "
               "run %.3f s\n",
               label, static_cast<unsigned long long>(c.issued),
               static_cast<unsigned long long>(c.scheduled),
               static_cast<unsigned long long>(c.committed),
               static_cast<unsigned long long>(c.rejected),
               static_cast<unsigned long long>(c.failed),
               static_cast<unsigned long long>(c.unfinished), c.latency.P50() / 1000,
               c.latency.P99() / 1000, c.issue_lag.P99() / 1000, run_s);
}

/// Gates every real run must pass against the simulated prediction.
void GateRealRun(const std::string& prefix, const RealRun& run,
                 const Prediction& sim, Report* report) {
  const double real_mpo =
      Ratio(static_cast<double>(run.net.messages_sent),
            static_cast<double>(run.clients.committed));
  const double sim_mpo = Ratio(static_cast<double>(sim.messages),
                               static_cast<double>(sim.clients.committed));
  report->Gate(prefix + "eq1_exact", run.eq1);
  report->Gate(prefix + "pools_nonnegative", run.pools_nonnegative);
  report->Gate(prefix + "frames_rejected_zero", run.net.frames_rejected == 0);
  report->Gate(prefix + "msgs_per_op_within_5pct_of_sim",
               sim_mpo > 0 && std::abs(real_mpo - sim_mpo) <= 0.05 * sim_mpo);
  report->Gate(prefix + "all_issued", run.clients.issued == run.clients.scheduled);
}

}  // namespace

Report RunRealLoopback(const Args& args) {
  const double window_s = std::max(2.0, std::floor(args.seconds * 0.75));
  const Duration window = static_cast<Duration>(window_s * 1e6);
  const std::vector<Script> scripts = MakeScripts(args.seed, window);
  Report report;

  const Prediction sim = Predict(args.seed, scripts, window, nullptr, 0, nullptr);
  PrintRun("sim prediction", sim.clients, sim.run_s);
  report.Gate("sim_eq1_exact", sim.eq1);

  if (args.trace) {
    SpanRecorder sim_rec;
    Predict(args.seed, scripts, window, &sim_rec, sim.run_s, &report);
    const RealRun base = RunReal(args.seed, scripts, window, nullptr);
    PrintRun("real untraced", base.clients, base.run_s);
    SpanRecorder rec;
    const RealRun traced = RunReal(args.seed, scripts, window, &rec);
    PrintRun("real traced", traced.clients, traced.run_s);
    GateRealRun("", base, sim, &report);
    GateRealRun("traced_", traced, sim, &report);

    const double ops = static_cast<double>(base.clients.committed);
    const double traced_ops = static_cast<double>(traced.clients.committed);
    const double handler_s =
        static_cast<double>(rec.Totals(Layer::kSite).ns +
                            rec.Totals(Layer::kAppManager).ns +
                            rec.Totals(Layer::kClient).ns) /
        1e9;
    report.Add("rt.cpu_us_per_op", Ratio(base.loop_cpu_s * 1e6, ops), "us");
    report.Add("rt.self_cpu_us_per_op",
               Ratio((traced.loop_cpu_s - handler_s) * 1e6, traced_ops), "us");
    report.Add("rt.site.handler_us_per_op",
               Ratio(static_cast<double>(rec.Totals(Layer::kSite).ns) / 1e3, traced_ops),
               "us");
    report.Add("rt.am.handler_us_per_op",
               Ratio(static_cast<double>(rec.Totals(Layer::kAppManager).ns) / 1e3,
                     traced_ops),
               "us");
    report.Add("rt.client.handler_us_per_op",
               Ratio(static_cast<double>(rec.Totals(Layer::kClient).ns) / 1e3,
                     traced_ops),
               "us");
    report.Add("rt.issue_lag_p50_ms", base.clients.issue_lag.P50() / 1000, "ms");
    report.Add("rt.issue_lag_p99_ms", base.clients.issue_lag.P99() / 1000, "ms");
    report.Add("rt.added_latency_p50_ms",
               (base.clients.latency.P50() - sim.clients.latency.P50()) / 1000, "ms");
    report.Add("rt.msgs_per_op",
               Ratio(static_cast<double>(base.net.messages_sent), ops), "count");
    report.Add("rt.frames_rejected",
               static_cast<double>(base.net.frames_rejected +
                                   traced.net.frames_rejected),
               "count");
    const double issued = static_cast<double>(base.clients.issued);
    report.Add("client.rejected_frac",
               Ratio(static_cast<double>(base.clients.rejected), issued), "ratio");
    report.Add("client.dropped_frac",
               Ratio(static_cast<double>(base.clients.failed + base.clients.unfinished),
                     issued),
               "ratio");
    report.Add("trace.run_s_ratio", Ratio(traced.run_s, base.run_s), "ratio");
    report.Add("trace.p50_delta_ms",
               (traced.clients.latency.P50() - base.clients.latency.P50()) / 1000,
               "ms");
    report.Fact("sim_layers", "measured on the simulated prediction of the same "
                              "deployment and schedule");
    report.attempted = base.clients.scheduled;
    report.failed = base.clients.failed + base.clients.unfinished;
    WriteSpans(args, rec);
    return report;
  }

  // Set-up samples before and after the measured run, so that their median
  // spans more of the machine's load changes than one burst would.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples / 2; ++i) {
    setups.push_back(SetupOnce(args.seed, scripts));
  }
  const RealRun real = RunReal(args.seed, scripts, window, nullptr);
  PrintRun("real", real.clients, real.run_s);
  setups.push_back(real.setup_s);
  for (int i = 0; i < kSetupSamples / 2; ++i) {
    setups.push_back(SetupOnce(args.seed, scripts));
  }
  GateRealRun("", real, sim, &report);

  const ClientStats& c = real.clients;
  const double committed = static_cast<double>(c.committed);
  report.attempted = c.scheduled;
  report.failed = c.failed + c.unfinished;
  report.Add("setup_s", Median(setups), "s");
  report.Add("run_s", real.run_s, "s");
  report.Add("committed_tps", committed / window_s, "ops/s");
  report.Add("latency_p50_ms", BestWindow(c.latency_by_window, 50) / 1000, "ms");
  report.Add("latency_p99_ms", BestWindow(c.latency_by_window, 99) / 1000, "ms");
  report.Add("acquire_p99_ms", BestWindow(c.acquire_by_window, 99) / 1000, "ms");
  report.Add("committed_frac", Ratio(committed, static_cast<double>(c.scheduled)),
             "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Fact("whole_run_p99_ms", std::to_string(c.latency.P99() / 1000));
  return report;
}

}  // namespace perfbench
