#include "harness/real_harness.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "core/app_manager.h"
#include "harness/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rt/latency_model.h"

namespace samya::harness {
namespace {

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double MessagesPerRequest(uint64_t sent, uint64_t committed) {
  if (committed == 0) return 0.0;
  return static_cast<double>(sent) / static_cast<double>(committed);
}

}  // namespace

RealHarness::RealHarness(RealHarnessOptions opts) : opts_(std::move(opts)) {
  // Reactive-only comparison: prediction needs a training trace, which the
  // scripted workload does not carry, and must match across backends.
  opts_.site_template.enable_prediction = false;
  // One seed steers the whole comparison (scripts, sim run, netem shaping).
  opts_.netem.seed = opts_.seed;

  // Deterministic per-region scripts: every run of either backend with the
  // same options replays exactly these requests.
  Rng script_rng = Rng(opts_.seed).Fork(0x73637074);  // "scpt"
  scripts_.resize(5);
  for (int r = 0; r < 5; ++r) {
    Rng region_rng = script_rng.Fork(static_cast<uint64_t>(r));
    auto& script = scripts_[static_cast<size_t>(r)];
    script.reserve(static_cast<size_t>(opts_.requests_per_region));
    for (int i = 0; i < opts_.requests_per_region; ++i) {
      workload::Request req;
      req.at = opts_.spacing * (i + 1);
      req.type = region_rng.NextDouble() < opts_.release_ratio
                     ? workload::Request::Type::kRelease
                     : workload::Request::Type::kAcquire;
      // Unit amounts: the Eq. 1 audit ledger (site committed_acquires /
      // committed_releases) counts transactions, so the pools-vs-ledger
      // equality is exact only for amount == 1, like the Azure workload.
      req.amount = 1;
      script.push_back(req);
      horizon_ = std::max(horizon_, req.at);
    }
  }
}

BackendRun RealHarness::RunSim() {
  ExperimentOptions eopts;
  eopts.system = SystemKind::kSamyaMajority;
  eopts.num_sites = opts_.num_sites;
  eopts.max_tokens = opts_.max_tokens;
  eopts.duration = horizon_ + opts_.drain;
  eopts.seed = opts_.seed;
  eopts.client_timeout = opts_.client_timeout;
  eopts.client_attempts = opts_.client_attempts;
  eopts.site_template = opts_.site_template;
  eopts.scripts_override = scripts_;
  eopts.audit.enabled = true;
  eopts.obs.metrics = true;
  eopts.obs.flight_capacity = obs::FlightRecorder::kDefaultCapacity;

  const auto wall_start = std::chrono::steady_clock::now();
  Experiment ex(eopts);
  ex.Setup();
  ExperimentResult result = ex.Run();

  BackendRun run;
  run.backend = "sim";
  run.aggregate = result.aggregate;
  run.messages_sent = result.network.messages_sent;
  run.messages_delivered = result.network.messages_delivered;
  run.messages_per_request =
      MessagesPerRequest(run.messages_sent, run.aggregate.TotalCommitted());
  run.total_site_tokens = ex.TotalSiteTokens();
  run.server_net_acquires = ex.ServerNetAcquires();
  run.conservation_exact =
      run.total_site_tokens + run.server_net_acquires == opts_.max_tokens;
  run.violations = result.violations.size() + result.dropped_violations;
  run.wall_seconds = WallSecondsSince(wall_start);
  run.metrics = BuildMetricsSnapshot(result);
  if (result.obs != nullptr && result.obs->flight() != nullptr) {
    run.flight = result.obs->flight()->ToJson();
  } else {
    run.flight = JsonValue::MakeObject();
  }
  return run;
}

BackendRun RealHarness::RunReal() {
  const int n = opts_.num_sites;
  std::vector<rt::NodeId> site_ids;
  for (int i = 0; i < n; ++i) site_ids.push_back(i);

  rt::RealCluster cluster(opts_.netem);

  // Deployment mirrors Experiment::SetupSamya's node-id layout exactly
  // (sites 0..n-1, then one app manager per region, then one client per
  // region) so message-count comparisons are apples to apples.
  std::vector<core::Site*> sites;
  for (int i = 0; i < n; ++i) {
    core::SiteOptions sopts = opts_.site_template;
    sopts.sites = site_ids;
    sopts.initial_tokens = InitialSiteTokens(opts_.max_tokens, n, i);
    sopts.seasonal_period = 288;
    sopts.protocol = core::Protocol::kAvantanMajority;
    auto* site = cluster.AddNode<core::Site>(
        rt::kPaperRegions[static_cast<size_t>(i % 5)], sopts);
    site->set_storage(cluster.StorageFor(site->id()));
    sites.push_back(site);
  }

  for (int r = 0; r < 5; ++r) {
    core::AppManagerOptions aopts;
    for (int i = r; i < n; i += 5) {
      aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    aopts.rotate_over = aopts.sites.size();
    for (int i = 0; i < n; ++i) {
      if (i % 5 != r) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    cluster.AddNode<core::AppManager>(rt::kPaperRegions[static_cast<size_t>(r)],
                                      aopts);
  }

  std::vector<WorkloadClient*> clients;
  for (int r = 0; r < 5; ++r) {
    WorkloadClientOptions copts;
    copts.servers = {static_cast<rt::NodeId>(n + r)};
    copts.request_timeout = opts_.client_timeout;
    copts.max_attempts = opts_.client_attempts;
    auto* client = cluster.AddNode<WorkloadClient>(
        rt::kPaperRegions[static_cast<size_t>(r)], copts,
        scripts_[static_cast<size_t>(r)]);
    clients.push_back(client);
  }

  cluster.EnableObservability();

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.Start();
  cluster.RunFor(horizon_ + opts_.drain);

  // Quiesce: Eq. 1 equality is exact only with no request in flight and no
  // site frozen mid-redistribution. Poll (through each node's own loop)
  // until the deployment drains, with a bounded number of grace rounds.
  for (int round = 0; round < 100; ++round) {
    std::vector<size_t> outstanding(clients.size(), 0);
    std::vector<uint8_t> busy(sites.size(), 0);
    for (size_t c = 0; c < clients.size(); ++c) {
      WorkloadClient* client = clients[c];
      cluster.Post(client->id(),
                   [&outstanding, c, client] { outstanding[c] = client->outstanding(); });
    }
    for (size_t s = 0; s < sites.size(); ++s) {
      core::Site* site = sites[s];
      cluster.Post(site->id(), [&busy, s, site] {
        busy[s] = site->frozen() || site->queue_depth() > 0 ? 1 : 0;
      });
    }
    cluster.Barrier();
    bool idle = true;
    for (size_t v : outstanding) idle = idle && v == 0;
    for (uint8_t v : busy) idle = idle && v == 0;
    if (idle) break;
    cluster.RunFor(Millis(100));
  }

  // Read every measurement back on the owning loop thread, then stop.
  struct SiteRead {
    int64_t tokens = 0;
    int64_t net_acquires = 0;
  };
  std::vector<SiteRead> site_reads(sites.size());
  std::vector<ClientStats> client_stats(clients.size());
  for (size_t s = 0; s < sites.size(); ++s) {
    core::Site* site = sites[s];
    cluster.Post(site->id(), [&site_reads, s, site] {
      site_reads[s].tokens = site->tokens_left();
      site_reads[s].net_acquires =
          static_cast<int64_t>(site->stats().committed_acquires) -
          static_cast<int64_t>(site->stats().committed_releases);
    });
  }
  for (size_t c = 0; c < clients.size(); ++c) {
    WorkloadClient* client = clients[c];
    cluster.Post(client->id(),
                 [&client_stats, c, client] { client_stats[c] = client->stats(); });
  }
  cluster.Barrier();
  cluster.Shutdown();

  BackendRun run;
  run.backend = "real";
  for (const ClientStats& cs : client_stats) {
    run.aggregate.latency.Merge(cs.latency);
    run.aggregate.acquire_latency.Merge(cs.acquire_latency);
    run.aggregate.committed_acquires += cs.committed_acquires;
    run.aggregate.committed_releases += cs.committed_releases;
    run.aggregate.committed_reads += cs.committed_reads;
    run.aggregate.rejected += cs.rejected;
    run.aggregate.dropped += cs.dropped;
    run.aggregate.sent += cs.sent;
    run.aggregate.skipped_releases += cs.skipped_releases;
  }
  const rt::RealNetStats net = cluster.stats();
  run.messages_sent = net.messages_sent;
  run.messages_delivered = net.messages_delivered;
  run.frames_rejected = net.frames_rejected;
  run.messages_per_request =
      MessagesPerRequest(run.messages_sent, run.aggregate.TotalCommitted());
  for (const SiteRead& sr : site_reads) {
    run.total_site_tokens += sr.tokens;
    run.server_net_acquires += sr.net_acquires;
    if (sr.tokens < 0) ++run.violations;  // pools must never go negative
  }
  run.conservation_exact =
      run.total_site_tokens + run.server_net_acquires == opts_.max_tokens;
  if (!run.conservation_exact) ++run.violations;
  if (run.server_net_acquires > opts_.max_tokens) ++run.violations;
  run.wall_seconds = WallSecondsSince(wall_start);

  // Fold the per-node observability shards into one snapshot each, the
  // same shape the simulator result carries.
  obs::MetricsRegistry merged_metrics;
  obs::FlightRecorder merged_flight(4096 * cluster.num_nodes());
  for (size_t id = 0; id < cluster.num_nodes(); ++id) {
    const auto node_id = static_cast<rt::NodeId>(id);
    if (const auto* m = cluster.metrics_for(node_id)) {
      merged_metrics.Merge(*m);
    }
    if (const auto* f = cluster.flight_for(node_id)) {
      merged_flight.Merge(*f);
    }
  }
  run.metrics = JsonValue::MakeObject();
  run.metrics.Set("metrics", merged_metrics.ToJson());
  run.flight = merged_flight.ToJson();
  return run;
}

}  // namespace samya::harness
