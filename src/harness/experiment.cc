#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>

#include "baselines/demarcation.h"
#include "baselines/site_escrow.h"
#include "baselines/replicated.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/testonly_mutation.h"
#include "core/app_manager.h"
#include "workload/transform.h"

namespace samya::harness {

namespace {

/// The five client regions of §5.2.
constexpr std::array<sim::Region, 5> kClientRegions = sim::kPaperRegions;

}  // namespace

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSamyaMajority:
      return "Samya w/ Avantan[(n+1)/2]";
    case SystemKind::kSamyaAny:
      return "Samya w/ Avantan[*]";
    case SystemKind::kMultiPaxSys:
      return "MultiPaxSys";
    case SystemKind::kCockroachLike:
      return "CockroachDB-like (Raft)";
    case SystemKind::kDemarcation:
      return "Demarcation/Escrow";
    case SystemKind::kSiteEscrow:
      return "Generalised Site Escrow (gossip)";
    case SystemKind::kSamyaNoConstraint:
      return "Samya (no constraints)";
    case SystemKind::kSamyaNoRedistribution:
      return "Samya (no redistribution)";
    case SystemKind::kSamyaMajorityNoPredict:
      return "Samya w/ Av.[(n+1)/2], no prediction";
    case SystemKind::kSamyaAnyNoPredict:
      return "Samya w/ Av.[*], no prediction";
    case SystemKind::kBoundedCounter:
      return "Bounded Counter CRDT";
  }
  return "?";
}

bool IsSamyaVariant(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMultiPaxSys:
    case SystemKind::kCockroachLike:
    case SystemKind::kDemarcation:
    case SystemKind::kSiteEscrow:
    case SystemKind::kBoundedCounter:
      return false;
    default:
      return true;
  }
}

int64_t InitialSiteTokens(int64_t max_tokens, int num_sites, int site_index) {
  const int64_t base = max_tokens / num_sites;
  if (MutationEnabled(kMutationAllocRemainder)) {
    return base;  // PR 2's bug: the M_e % n remainder is dropped
  }
  return base + (site_index < max_tokens % num_sites ? 1 : 0);
}

Experiment::Experiment(ExperimentOptions opts) : opts_(std::move(opts)) {
  SAMYA_CHECK_GE(opts_.num_sites, 1);
}

const workload::DemandTrace& Experiment::CompressedBaseTrace() const {
  if (compressed_base_ == nullptr) {
    auto trace = workload::GenerateAzureTrace(opts_.trace);
    double scale = opts_.load_scale;
    if (opts_.scale_load_with_sites) {
      scale *= static_cast<double>(opts_.num_sites) / 5.0;
    }
    if (scale != 1.0) {
      trace = workload::ScaleCounts(trace, scale, opts_.seed + 100);
    }
    compressed_base_ = std::make_unique<workload::DemandTrace>(
        workload::CompressTime(trace, opts_.compress_factor));
  }
  return *compressed_base_;
}

std::vector<double> Experiment::RegionDemandSeries(int region_index) const {
  const workload::DemandTrace& compressed = CompressedBaseTrace();
  const Duration day = compressed.interval() * 288;
  auto shifted = workload::PhaseShift(
      compressed, day * region_index / 5);
  auto series = shifted.CreationSeries();
  // Several sites share a region's load; each observes its slice.
  const int sites_in_region =
      (opts_.num_sites + 4 - region_index) / 5;  // round-robin placement
  if (sites_in_region > 1) {
    for (double& v : series) v /= static_cast<double>(sites_in_region);
  }
  return series;
}

void Experiment::Setup() {
  SAMYA_CHECK(!setup_done_);
  setup_done_ = true;
  cluster_ = std::make_unique<sim::Cluster>(opts_.seed);
  faults_ = std::make_unique<sim::FaultInjector>(&cluster_->net());
  if (opts_.oracle != nullptr) {
    // Before any event is scheduled: the queue must meta-tag every slot.
    cluster_->env().set_oracle(opts_.oracle);
  }

  if (opts_.obs.any()) {
    // Attach before any node starts: sites cache the flight/metrics
    // pointers in Start(), so late attachment would instrument nothing.
    obs_ = std::make_shared<obs::Observability>(opts_.obs);
    cluster_->net().set_observability(obs_->flight(), obs_->metrics(),
                                      obs_->profiler());
    cluster_->env().set_profiler(obs_->profiler());
  }

  if (opts_.system == SystemKind::kDemarcation ||
      opts_.system == SystemKind::kSiteEscrow) {
    SetupDemarcation();
  } else if (opts_.system == SystemKind::kBoundedCounter) {
    SetupBoundedCounter();
  } else if (!IsSamyaVariant(opts_.system)) {
    SetupReplicated();
  } else {
    SetupSamya();
  }

  if (!opts_.fault_schedule.empty()) {
    sim::ApplySchedule(opts_.fault_schedule, &cluster_->net());
  }
  if (opts_.audit.enabled) {
    auditor_ = std::make_unique<InvariantAuditor>(this, opts_.audit);
    auditor_->Install();
  }
  FinishObsSetup();
}

void Experiment::FinishObsSetup() {
  if (obs_ == nullptr) return;
  obs::FlightRecorder* flight = obs_->flight();
  if (flight == nullptr) return;
  // Every node becomes a "process" row in the Perfetto export; give each a
  // readable name. Servers and clients are known by id; everything between
  // is an app manager.
  std::vector<bool> named(cluster_->num_nodes(), false);
  char buf[64];
  for (sim::NodeId id : server_ids_) {
    std::snprintf(buf, sizeof(buf), "site %d (%s)", id,
                  sim::RegionName(cluster_->node(id)->region()));
    flight->NameNode(id, buf);
    named[static_cast<size_t>(id)] = true;
  }
  for (sim::NodeId id : client_ids_) {
    std::snprintf(buf, sizeof(buf), "client %d (%s)", id,
                  sim::RegionName(cluster_->node(id)->region()));
    flight->NameNode(id, buf);
    named[static_cast<size_t>(id)] = true;
  }
  for (size_t i = 0; i < named.size(); ++i) {
    if (named[i]) continue;
    const auto id = static_cast<sim::NodeId>(i);
    std::snprintf(buf, sizeof(buf), "app manager %d (%s)", id,
                  sim::RegionName(cluster_->node(id)->region()));
    flight->NameNode(id, buf);
  }
}

void Experiment::SetupSamya() {
  const int n = opts_.num_sites;
  std::vector<sim::NodeId> site_ids;
  for (int i = 0; i < n; ++i) site_ids.push_back(i);

  for (int i = 0; i < n; ++i) {
    core::SiteOptions sopts = opts_.site_template;
    sopts.sites = site_ids;
    sopts.initial_tokens = InitialSiteTokens(opts_.max_tokens, n, i);
    sopts.seasonal_period = 288;
    switch (opts_.system) {
      case SystemKind::kSamyaMajority:
        sopts.protocol = core::Protocol::kAvantanMajority;
        break;
      case SystemKind::kSamyaAny:
        sopts.protocol = core::Protocol::kAvantanAny;
        break;
      case SystemKind::kSamyaMajorityNoPredict:
        sopts.protocol = core::Protocol::kAvantanMajority;
        sopts.enable_prediction = false;
        break;
      case SystemKind::kSamyaAnyNoPredict:
        sopts.protocol = core::Protocol::kAvantanAny;
        sopts.enable_prediction = false;
        break;
      case SystemKind::kSamyaNoConstraint:
        sopts.enforce_constraint = false;
        sopts.enable_redistribution = false;
        sopts.enable_prediction = false;
        break;
      case SystemKind::kSamyaNoRedistribution:
        sopts.enable_redistribution = false;
        sopts.enable_prediction = false;
        break;
      default:
        SAMYA_CHECK(false);
    }
    if (sopts.enable_prediction && sopts.training_series.empty()) {
      sopts.training_series = RegionDemandSeries(i % 5);
    }
    auto* site = cluster_->AddNode<core::Site>(
        kClientRegions[static_cast<size_t>(i % 5)], sopts);
    site->set_storage(cluster_->StorageFor(site->id()));
    if (opts_.history != nullptr) {
      site->set_history_tap([h = opts_.history](uint64_t id, TokenStatus s) {
        h->OnServerOutcome(id, s);
      });
    }
    sites_.push_back(site);
    server_ids_.push_back(site->id());
  }

  // One app manager per region, preferring (and rotating over) the region's
  // own sites, with the remaining sites as failover targets.
  std::vector<std::vector<sim::NodeId>> am_per_region(5);
  for (int r = 0; r < 5; ++r) {
    core::AppManagerOptions aopts;
    for (int i = r; i < n; i += 5) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    aopts.rotate_over = aopts.sites.size();
    for (int i = 0; i < n; ++i) {
      if (i % 5 != r) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    auto* am = cluster_->AddNode<core::AppManager>(
        kClientRegions[static_cast<size_t>(r)], aopts);
    app_managers_.push_back(am);
    if (opts_.history != nullptr) {
      am->set_response_tap([h = opts_.history](const TokenResponse& resp) {
        h->OnServerOutcome(resp.request_id, resp.status);
      });
    }
    am_per_region[static_cast<size_t>(r)] = {am->id()};
  }
  AddClients(am_per_region);
}

void Experiment::SetupDemarcation() {
  const int n = opts_.num_sites;
  std::vector<sim::NodeId> site_ids;
  for (int i = 0; i < n; ++i) site_ids.push_back(i);
  for (int i = 0; i < n; ++i) {
    if (opts_.system == SystemKind::kSiteEscrow) {
      baselines::SiteEscrowOptions sopts;
      sopts.sites = site_ids;
      sopts.initial_tokens = InitialSiteTokens(opts_.max_tokens, n, i);
      cluster_->AddNode<baselines::SiteEscrowSite>(
          kClientRegions[static_cast<size_t>(i % 5)], sopts);
    } else {
      baselines::DemarcationOptions dopts;
      dopts.sites = site_ids;
      dopts.initial_tokens = InitialSiteTokens(opts_.max_tokens, n, i);
      cluster_->AddNode<baselines::DemarcationSite>(
          kClientRegions[static_cast<size_t>(i % 5)], dopts);
    }
    server_ids_.push_back(site_ids[static_cast<size_t>(i)]);
  }
  std::vector<std::vector<sim::NodeId>> am_per_region(5);
  for (int r = 0; r < 5; ++r) {
    core::AppManagerOptions aopts;
    for (int i = r; i < n; i += 5) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    aopts.rotate_over = aopts.sites.size();
    for (int i = 0; i < n; ++i) {
      if (i % 5 != r) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    auto* am = cluster_->AddNode<core::AppManager>(
        kClientRegions[static_cast<size_t>(r)], aopts);
    app_managers_.push_back(am);
    am_per_region[static_cast<size_t>(r)] = {am->id()};
  }
  AddClients(am_per_region);
}

void Experiment::SetupBoundedCounter() {
  const int n = opts_.num_sites;
  std::vector<sim::NodeId> site_ids;
  std::vector<int64_t> shares;
  for (int i = 0; i < n; ++i) {
    site_ids.push_back(i);
    shares.push_back(InitialSiteTokens(opts_.max_tokens, n, i));
  }
  for (int i = 0; i < n; ++i) {
    baselines::BoundedCounterOptions bopts;
    bopts.sites = site_ids;
    bopts.initial_shares = shares;
    bopts.global_tokens = opts_.max_tokens;
    auto* site = cluster_->AddNode<baselines::BoundedCounterSite>(
        kClientRegions[static_cast<size_t>(i % 5)], bopts);
    site->set_storage(cluster_->StorageFor(site->id()));
    if (opts_.history != nullptr) {
      site->set_history_tap([h = opts_.history](uint64_t id, TokenStatus s) {
        h->OnServerOutcome(id, s);
      });
    }
    bounded_sites_.push_back(site);
    server_ids_.push_back(site->id());
  }
  std::vector<std::vector<sim::NodeId>> am_per_region(5);
  for (int r = 0; r < 5; ++r) {
    core::AppManagerOptions aopts;
    for (int i = r; i < n; i += 5) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    aopts.rotate_over = aopts.sites.size();
    for (int i = 0; i < n; ++i) {
      if (i % 5 != r) aopts.sites.push_back(site_ids[static_cast<size_t>(i)]);
    }
    auto* am = cluster_->AddNode<core::AppManager>(
        kClientRegions[static_cast<size_t>(r)], aopts);
    app_managers_.push_back(am);
    if (opts_.history != nullptr) {
      am->set_response_tap([h = opts_.history](const TokenResponse& resp) {
        h->OnServerOutcome(resp.request_id, resp.status);
      });
    }
    am_per_region[static_cast<size_t>(r)] = {am->id()};
  }
  AddClients(am_per_region);
}

void Experiment::SetupReplicated() {
  baselines::ReplicatedGroup group =
      opts_.system == SystemKind::kMultiPaxSys
          ? baselines::CreateMultiPaxSys(*cluster_, opts_.max_tokens)
          : baselines::CreateCockroachLike(*cluster_, opts_.max_tokens);
  server_ids_ = group.replica_ids;
  // Clients contact the replicas directly (the paper's baseline clients are
  // plain RPC clients); the leader hint steers them after the first reply.
  std::vector<std::vector<sim::NodeId>> servers_per_region(
      5, group.replica_ids);
  AddClients(servers_per_region);
}

void Experiment::AddClients(
    const std::vector<std::vector<sim::NodeId>>& servers_per_region) {
  for (int r = 0; r < 5; ++r) {
    std::vector<workload::Request> script;
    if (!opts_.scripts_override.empty()) {
      // Fixed explorer scenario; missing entries leave the region idle.
      if (static_cast<size_t>(r) < opts_.scripts_override.size()) {
        script = opts_.scripts_override[static_cast<size_t>(r)];
      }
    } else {
      const workload::DemandTrace& compressed = CompressedBaseTrace();
      const Duration day = compressed.interval() * 288;
      auto shifted = workload::PhaseShift(compressed, day * r / 5);

      workload::RequestStreamOptions ropts;
      ropts.read_ratio = opts_.read_ratio;
      ropts.horizon = opts_.duration;
      ropts.seed = opts_.seed + 7 + static_cast<uint64_t>(r);
      script = workload::GenerateRequests(shifted, ropts);
    }

    WorkloadClientOptions copts;
    copts.servers = servers_per_region[static_cast<size_t>(r)];
    copts.request_timeout = opts_.client_timeout;
    copts.max_attempts = opts_.client_attempts;
    copts.closed_loop = opts_.closed_loop;
    copts.window = opts_.client_window;
    copts.history = opts_.history;
    auto* client = cluster_->AddNode<WorkloadClient>(
        kClientRegions[static_cast<size_t>(r)], copts, std::move(script));
    clients_.push_back(client);
    client_ids_.push_back(client->id());
  }
}

ExperimentResult Experiment::Run() {
  SAMYA_CHECK(setup_done_);
  // Stamp this thread's log lines with this simulation's clock for the
  // duration of the run (parallel sweeps run one simulation per thread).
  Logger::SetThreadSimClock(cluster_->env().now_ptr());
  cluster_->StartAll();
  cluster_->RunUntil(opts_.duration + Seconds(10));

  ExperimentResult result;
  for (auto* client : clients_) {
    const ClientStats& s = client->stats();
    result.per_client.push_back(s);
    result.aggregate.latency.Merge(s.latency);
    result.aggregate.acquire_latency.Merge(s.acquire_latency);
    result.aggregate.committed_acquires += s.committed_acquires;
    result.aggregate.committed_releases += s.committed_releases;
    result.aggregate.committed_reads += s.committed_reads;
    result.aggregate.rejected += s.rejected;
    result.aggregate.dropped += s.dropped;
    result.aggregate.sent += s.sent;
    for (size_t bin = 0; bin < s.committed.num_bins(); ++bin) {
      if (s.committed.bin(bin) > 0) {
        result.throughput.Record(static_cast<SimTime>(bin) * Seconds(1),
                                 s.committed.bin(bin));
      }
    }
  }
  for (auto* site : sites_) {
    result.proactive_redistributions += site->stats().proactive_redistributions;
    result.reactive_redistributions += site->stats().reactive_redistributions;
    result.instances_completed += site->stats().instances_completed;
    result.instances_aborted += site->stats().instances_aborted;
    result.total_site_frozen_time += site->stats().time_frozen;
  }
  result.network = cluster_->net().stats();
  result.events_executed = cluster_->TotalEventsExecuted();
  if (auditor_ != nullptr) {
    auditor_->FinalAudit();
    result.violations = auditor_->violations();
    result.dropped_violations = auditor_->dropped_violations();
    result.audit_ticks = auditor_->ticks();
    if (result.dropped_violations > 0) {
      SAMYA_LOG_ERROR(
          "AUDIT summary: %zu violations reported, %llu more dropped past "
          "the cap",
          result.violations.size(),
          static_cast<unsigned long long>(result.dropped_violations));
    }
  }
  if (obs_ != nullptr) {
    SnapshotMetrics();
    if (obs::FlightRecorder* flight = obs_->flight()) {
      flight->set_end(cluster_->env().Now());
    }
    result.obs = obs_;
  }
  Logger::SetThreadSimClock(nullptr);
  return result;
}

void Experiment::SnapshotMetrics() {
  obs::MetricsRegistry* mr = obs_->metrics();
  if (mr == nullptr) return;
  const char* protocol = "";
  if (IsSamyaVariant(opts_.system)) {
    protocol = (opts_.system == SystemKind::kSamyaAny ||
                opts_.system == SystemKind::kSamyaAnyNoPredict)
                   ? "any"
                   : "majority";
  }

  for (auto* site : sites_) {
    const core::SiteStats& s = site->stats();
    obs::MetricLabels l;
    l.site = site->id();
    l.protocol = protocol;
    mr->GetCounter("site.committed_acquires", l)->Add(s.committed_acquires);
    mr->GetCounter("site.committed_releases", l)->Add(s.committed_releases);
    mr->GetCounter("site.committed_reads", l)->Add(s.committed_reads);
    mr->GetCounter("site.rejected", l)->Add(s.rejected);
    mr->GetCounter("site.requests_queued", l)->Add(s.requests_queued);
    mr->GetCounter("site.proactive_redistributions", l)
        ->Add(s.proactive_redistributions);
    mr->GetCounter("site.reactive_redistributions", l)
        ->Add(s.reactive_redistributions);
    mr->GetCounter("site.instances_completed", l)->Add(s.instances_completed);
    mr->GetCounter("site.instances_aborted", l)->Add(s.instances_aborted);
    mr->GetGauge("site.time_frozen_us", l)->Set(s.time_frozen);
    mr->GetGauge("site.tokens_left", l)->Set(site->tokens_left());
  }

  for (auto* am : app_managers_) {
    obs::MetricLabels l;
    l.site = am->id();
    mr->GetCounter("am.relayed", l)->Add(am->relayed());
    mr->GetCounter("am.failover_resends", l)->Add(am->failover_resends());
    mr->GetCounter("am.batches_sent", l)->Add(am->batches_sent());
    mr->GetCounter("am.batched_requests", l)->Add(am->batched_requests());
  }

  for (auto* site : bounded_sites_) {
    const baselines::BoundedCounterStats& s = site->stats();
    obs::MetricLabels l;
    l.site = site->id();
    l.protocol = "bounded_counter";
    mr->GetCounter("site.committed_acquires", l)->Add(s.committed_acquires);
    mr->GetCounter("site.committed_releases", l)->Add(s.committed_releases);
    mr->GetCounter("site.committed_reads", l)->Add(s.committed_reads);
    mr->GetCounter("site.rejected", l)->Add(s.rejected);
    mr->GetCounter("site.transfers_requested", l)->Add(s.transfers_requested);
    mr->GetCounter("site.transfers_granted", l)->Add(s.transfers_granted);
    mr->GetCounter("site.gossip_rounds", l)->Add(s.gossip_rounds);
    mr->GetCounter("site.disconnected_windows", l)
        ->Add(s.disconnected_windows);
    mr->GetGauge("site.local_rights", l)->Set(site->local_rights());
  }

  const sim::NetworkStats& ns = cluster_->net().stats();
  mr->GetCounter("net.messages_sent")->Add(ns.messages_sent);
  mr->GetCounter("net.messages_delivered")->Add(ns.messages_delivered);
  mr->GetCounter("net.messages_dropped_loss")->Add(ns.messages_dropped_loss);
  mr->GetCounter("net.messages_dropped_partition")
      ->Add(ns.messages_dropped_partition);
  mr->GetCounter("net.messages_dropped_crashed")
      ->Add(ns.messages_dropped_crashed);
  mr->GetCounter("net.messages_dropped_link")->Add(ns.messages_dropped_link);
  mr->GetCounter("net.messages_duplicated")->Add(ns.messages_duplicated);
  mr->GetCounter("net.bytes_sent")->Add(ns.bytes_sent);
  mr->GetGauge("sim.events_executed")->Set(
      static_cast<int64_t>(cluster_->TotalEventsExecuted()));

  // Per-directed-link lifecycle counters (satellite: surfaced through the
  // snapshot so drop accounting is auditable per link).
  for (const auto& [key, lc] : cluster_->net().link_counters()) {
    obs::MetricLabels l;
    l.site = sim::Network::LinkKeyFrom(key);
    l.peer = sim::Network::LinkKeyTo(key);
    mr->GetCounter("link.attempts", l)->Add(lc.attempts);
    mr->GetCounter("link.duplicated", l)->Add(lc.duplicated);
    mr->GetCounter("link.dropped_at_send", l)->Add(lc.dropped_at_send);
    mr->GetCounter("link.delivered", l)->Add(lc.delivered);
    mr->GetCounter("link.dropped_at_delivery", l)->Add(lc.dropped_at_delivery);
    mr->GetCounter("link.bytes", l)->Add(lc.bytes);
  }
}

JsonValue BuildMetricsSnapshot(const ExperimentResult& result) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue summary = JsonValue::MakeObject();
  summary.Set("committed_acquires", result.aggregate.committed_acquires);
  summary.Set("committed_releases", result.aggregate.committed_releases);
  summary.Set("committed_reads", result.aggregate.committed_reads);
  summary.Set("rejected", result.aggregate.rejected);
  summary.Set("dropped", result.aggregate.dropped);
  summary.Set("sent", result.aggregate.sent);
  summary.Set("instances_completed", result.instances_completed);
  summary.Set("instances_aborted", result.instances_aborted);
  summary.Set("proactive_redistributions", result.proactive_redistributions);
  summary.Set("reactive_redistributions", result.reactive_redistributions);
  summary.Set("events_executed", result.events_executed);
  summary.Set("messages_sent", result.network.messages_sent);
  summary.Set("messages_delivered", result.network.messages_delivered);
  root.Set("summary", std::move(summary));
  if (!result.violations.empty() || result.dropped_violations > 0) {
    JsonValue audit = JsonValue::MakeObject();
    audit.Set("violations", static_cast<uint64_t>(result.violations.size()));
    audit.Set("dropped_violations", result.dropped_violations);
    root.Set("audit", std::move(audit));
  }
  root.Set("client_latency", result.aggregate.latency.ToJson());
  if (result.obs != nullptr) {
    if (const obs::MetricsRegistry* mr = result.obs->metrics()) {
      root.Set("metrics", mr->ToJson());
    }
    if (const obs::EventLoopProfiler* prof = result.obs->profiler()) {
      root.Set("profiler", prof->ToJson());
    }
    if (const obs::FlightRecorder* flight = result.obs->flight()) {
      // Summary only; the full event history lives in the post-mortem
      // bundle (harness/postmortem.h), not the metrics snapshot.
      JsonValue f = JsonValue::MakeObject();
      f.Set("total", flight->total());
      f.Set("retained", static_cast<uint64_t>(flight->retained()));
      f.Set("dropped", flight->dropped());
      f.Set("complete_from", flight->complete_from());
      char digest[24];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(flight->Digest()));
      f.Set("digest", std::string(digest));
      root.Set("flight", std::move(f));
    }
  }
  return root;
}

int64_t Experiment::TotalSiteTokens() const {
  int64_t sum = 0;
  for (auto* site : sites_) sum += site->tokens_left();
  // Bounded-counter runs: the analogue of a site's pool is its authoritative
  // own-row balance (inc - dec); transfers move only `out` entries, which
  // cancel across the fleet, so this sum plus the ledger is exact.
  for (auto* site : bounded_sites_) sum += site->authoritative_balance();
  return sum;
}

int64_t Experiment::ServerNetAcquires() const {
  int64_t net = 0;
  for (auto* site : sites_) {
    net += static_cast<int64_t>(site->stats().committed_acquires) -
           static_cast<int64_t>(site->stats().committed_releases);
  }
  for (auto* site : bounded_sites_) {
    net += static_cast<int64_t>(site->stats().committed_acquires) -
           static_cast<int64_t>(site->stats().committed_releases);
  }
  return net;
}

int64_t Experiment::NetCommittedAcquires() const {
  int64_t net = 0;
  for (auto* client : clients_) {
    net += static_cast<int64_t>(client->stats().committed_acquires) -
           static_cast<int64_t>(client->stats().committed_releases);
  }
  return net;
}

}  // namespace samya::harness
