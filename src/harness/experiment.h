#ifndef SAMYA_HARNESS_EXPERIMENT_H_
#define SAMYA_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/bounded_counter.h"
#include "core/app_manager.h"
#include "core/site.h"
#include "harness/history.h"
#include "harness/invariant_auditor.h"
#include "harness/workload_client.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "sim/fault_injector.h"
#include "sim/nemesis.h"
#include "sim/schedule_oracle.h"
#include "workload/azure_generator.h"

namespace samya::harness {

/// The systems under test across §5. The ablation variants are the paper's
/// Fig 3e/3f configurations of Samya.
enum class SystemKind {
  kSamyaMajority,            ///< Samya w/ Avantan[(n+1)/2]
  kSamyaAny,                 ///< Samya w/ Avantan[*]
  kMultiPaxSys,              ///< leader-based multi-Paxos baseline
  kCockroachLike,            ///< Raft-based baseline (CockroachDB stand-in)
  kDemarcation,              ///< Demarcation/Escrow baseline
  kSiteEscrow,               ///< Generalised Site Escrow (gossip) baseline
  kSamyaNoConstraint,        ///< Fig 3e upper bound: no limit, no sync
  kSamyaNoRedistribution,    ///< Fig 3e: constraint but never redistribute
  kSamyaMajorityNoPredict,   ///< Fig 3f: reactive-only Avantan[(n+1)/2]
  kSamyaAnyNoPredict,        ///< Fig 3f: reactive-only Avantan[*]
  kBoundedCounter,           ///< BoundedCounter escrow CRDT (Balegas et al.)
};

const char* SystemName(SystemKind kind);
bool IsSamyaVariant(SystemKind kind);

/// One experiment configuration: a system, a workload, and a duration.
struct ExperimentOptions {
  SystemKind system = SystemKind::kSamyaMajority;
  int num_sites = 5;          ///< Samya/Demarcation sites (Fig 3g sweeps this)
  int64_t max_tokens = 5000;  ///< the global limit M_e (§5.2)
  Duration duration = kHour;  ///< measured load window
  double read_ratio = 0.0;    ///< Fig 3h
  uint64_t seed = 42;
  workload::AzureTraceOptions trace;  ///< synthetic Azure workload knobs
  int64_t compress_factor = 60;       ///< §5.1.2: 5 min -> 5 s
  double load_scale = 1.0;            ///< §5.9(ii) arrival-rate sweep
  /// Scale offered load with the site count (Fig 3g adds clients as sites
  /// are added so throughput can scale).
  bool scale_load_with_sites = false;

  // Client behaviour.
  Duration client_timeout = Seconds(3);
  int client_attempts = 2;
  /// Closed-loop (saturation) clients: Fig 3h's regime, where throughput is
  /// bounded by per-request latency instead of trace arrival times.
  bool closed_loop = false;
  int client_window = 4;

  // Samya knobs.
  core::SiteOptions site_template;  ///< timers/epoch defaults for sites

  // Chaos knobs. `fault_schedule` is applied against the network during
  // Setup (node ids: sites are 0..num_sites-1); `audit.enabled` installs a
  // continuous InvariantAuditor before the run (Samya variants with the
  // constraint on — it audits Eq. 1, which other systems do not promise).
  sim::FaultSchedule fault_schedule;
  AuditOptions audit;

  /// Observability components to attach (DESIGN.md §8). All off by default:
  /// the simulator then runs its uninstrumented hot path.
  obs::ObsOptions obs;

  // Schedule exploration (DESIGN.md §7). Both non-owning and null by
  // default, which leaves the simulator and client hot paths untouched.
  /// Oracle deciding message-delivery order; attached to the environment
  /// before any node is constructed.
  sim::ScheduleOracle* oracle = nullptr;
  /// Records every client op (plus server-side commit taps on Samya sites
  /// and app managers) for the linearizability checker.
  HistoryRecorder* history = nullptr;
  /// When non-empty, region r's client plays `scripts_override[r]` (missing
  /// or empty entries idle that region) instead of the generated Azure
  /// trace. The explorer uses this to drive small fixed scenarios.
  std::vector<std::vector<workload::Request>> scripts_override;
};

/// Aggregated measurements of one run.
struct ExperimentResult {
  ClientStats aggregate;              ///< merged over all clients
  std::vector<ClientStats> per_client;
  RateSeries throughput{Seconds(1)};  ///< committed txns/s over time

  // Samya-specific counters (zero for baselines).
  uint64_t proactive_redistributions = 0;
  uint64_t reactive_redistributions = 0;
  uint64_t instances_completed = 0;
  uint64_t instances_aborted = 0;
  /// Sum over sites of time spent frozen mid-redistribution.
  Duration total_site_frozen_time = 0;

  sim::NetworkStats network;
  uint64_t events_executed = 0;

  // Filled when the run was audited (`ExperimentOptions::audit.enabled`).
  std::vector<AuditViolation> violations;
  /// Violations past the auditor's cap (recorded, not silently discarded).
  uint64_t dropped_violations = 0;
  uint64_t audit_ticks = 0;

  /// The run's observability bundle (metrics registry / profiler / flight
  /// recorder), set iff any `ExperimentOptions::obs` component was on.
  /// Shared so sweep results can be moved around without copying buffers.
  std::shared_ptr<obs::Observability> obs;

  double MeanTps(Duration duration) const {
    return static_cast<double>(aggregate.TotalCommitted()) /
           ToSeconds(duration);
  }
};

/// \brief Builds a full deployment (sites/replicas + app managers + one
/// trace-driven client per region), runs it for `duration`, and aggregates
/// the measurements. All figure/table benches are thin wrappers over this.
class Experiment {
 public:
  explicit Experiment(ExperimentOptions opts);

  /// Constructs all nodes and workloads. Call once, before Run.
  void Setup();

  /// Runs the workload to completion (duration + drain) and aggregates.
  ExperimentResult Run();

  const ExperimentOptions& options() const { return opts_; }

  /// Access between Setup and Run for fault/partition schedules.
  sim::Cluster& cluster() { return *cluster_; }
  sim::FaultInjector& faults() { return *faults_; }
  const std::vector<sim::NodeId>& server_ids() const { return server_ids_; }
  const std::vector<sim::NodeId>& client_ids() const { return client_ids_; }

  const std::vector<core::Site*>& samya_sites() const { return sites_; }
  /// The per-region app managers (empty for replicated baselines, which
  /// have clients talk to replicas directly).
  const std::vector<core::AppManager*>& app_managers() const {
    return app_managers_;
  }
  /// Non-empty only for SystemKind::kBoundedCounter runs.
  const std::vector<baselines::BoundedCounterSite*>& bounded_sites() const {
    return bounded_sites_;
  }
  const std::vector<WorkloadClient*>& clients() const { return clients_; }

  /// The run's observability bundle; null unless `options().obs` requested
  /// a component. Valid from Setup on.
  obs::Observability* observability() const { return obs_.get(); }

  /// Conservation audit (Eq. 1): sum of site TokensLeft plus net committed
  /// acquires must equal M_e. Meaningful for Samya variants with the
  /// constraint on, after a failure-free drained run.
  int64_t TotalSiteTokens() const;
  int64_t NetCommittedAcquires() const;
  /// Server-side ledger: acquires minus releases committed by the sites
  /// themselves. Unlike the client view, this stays exact even when a
  /// response outlives its client's patience (e.g. across a crash).
  int64_t ServerNetAcquires() const;

 private:
  void SetupSamya();
  void SetupReplicated();
  void SetupDemarcation();
  void SetupBoundedCounter();
  /// Names exported trace "processes" and seeds the registry's per-site
  /// label space (no-op when observability is off).
  void FinishObsSetup();
  /// End-of-run registry population: site/network/per-link counters.
  void SnapshotMetrics();
  void AddClients(const std::vector<std::vector<sim::NodeId>>& servers_per_region);
  std::vector<double> RegionDemandSeries(int region_index) const;
  /// The generated, load-scaled, time-compressed base trace. Every region's
  /// demand is a phase shift of this one series, so it is computed once and
  /// cached — regenerating it per region/site dominated `Setup` cost.
  const workload::DemandTrace& CompressedBaseTrace() const;

  ExperimentOptions opts_;
  mutable std::unique_ptr<workload::DemandTrace> compressed_base_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::shared_ptr<obs::Observability> obs_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::vector<core::Site*> sites_;
  std::vector<baselines::BoundedCounterSite*> bounded_sites_;
  std::vector<core::AppManager*> app_managers_;
  std::vector<WorkloadClient*> clients_;
  std::vector<sim::NodeId> server_ids_;
  std::vector<sim::NodeId> client_ids_;
  bool setup_done_ = false;
};

/// Full JSON snapshot of one observed run: the metrics registry, the
/// event-loop profile, and headline result counters. Components that were
/// disabled are simply absent from the object.
JsonValue BuildMetricsSnapshot(const ExperimentResult& result);

/// Site `site_index`'s share of an entity's M_e tokens: M/n, with the first
/// (M % n) sites absorbing the division remainder so the pools sum to
/// exactly M_e (Eq. 1 conservation holds from t=0). Shared by every
/// deployment builder; also the host of the "alloc_remainder" test-only
/// mutation (common/testonly_mutation.h), which re-drops the remainder.
int64_t InitialSiteTokens(int64_t max_tokens, int num_sites, int site_index);

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_EXPERIMENT_H_
