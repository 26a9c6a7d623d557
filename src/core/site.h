#ifndef SAMYA_CORE_SITE_H_
#define SAMYA_CORE_SITE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/dedup_window.h"
#include "common/flat_map64.h"
#include "common/token_api.h"
#include "core/messages.h"
#include "core/reallocator.h"
#include "core/types.h"
#include "obs/flight_recorder.h"
#include "predict/predictor.h"
#include "rt/node.h"
#include "storage/stable_storage.h"

namespace samya::core {

/// Which Avantan variant a deployment runs (§4.3).
enum class Protocol {
  kAvantanMajority,  ///< Avantan[(n+1)/2]: majority quorum, total order
  kAvantanAny,       ///< Avantan[*]: any subset, concurrent instances
};

/// Configuration of a Samya site. The ablation flags correspond directly to
/// the paper's experiment variants (Figs 3e/3f).
struct SiteOptions {
  Protocol protocol = Protocol::kAvantanMajority;
  std::vector<rt::NodeId> sites;  ///< all sites, including self
  int64_t initial_tokens = 1000;   ///< this site's share of M_e

  // --- Ablation axes -------------------------------------------------------
  bool enforce_constraint = true;    ///< false = "No Constraints" (Fig 3e)
  bool enable_redistribution = true; ///< false = "No Redistribution" (Fig 3e)
  bool enable_prediction = true;     ///< false = reactive-only (Fig 3f)

  // --- Prediction Module (§4.2) -------------------------------------------
  Duration epoch = Seconds(5);  ///< look-ahead unit (compressed 5 minutes)
  /// Provisioning horizon: a proactive trigger sizes TokensWanted for this
  /// many epochs of predicted demand (the paper leaves the look-ahead to the
  /// workload: "5 or 10 minutes... depending on the workload pattern"; a
  /// longer horizon amortizes redistributions over a whole demand ramp).
  int prediction_horizon_epochs = 1;
  /// Factory for the pluggable predictor; defaults to a seasonal-naive
  /// predictor over one compressed day. Benches plug in the trained LSTM.
  std::function<std::unique_ptr<predict::DemandPredictor>()> predictor_factory;
  std::vector<double> training_series;  ///< optional warm-start history
  size_t seasonal_period = 288;         ///< epochs per season (one day)

  // --- Redistribution Module (§4.4) ---------------------------------------
  std::shared_ptr<Reallocator> reallocator;  ///< defaults to GreedyReallocator

  // --- Protocol timers -----------------------------------------------------
  Duration election_timeout = Millis(350);  ///< leader phase-1 wait
  Duration accept_timeout = Millis(350);    ///< leader phase-2 wait
  Duration watchdog_timeout = Millis(900);  ///< cohort leader-failure detect
  Duration abort_backoff = Millis(300);     ///< reactive-retrigger suppression
  Duration read_timeout = Millis(400);      ///< global-snapshot read fan-out

  // --- Disconnected mode (DESIGN.md §12) ----------------------------------
  /// Off by default: heartbeats change message counts and RNG draw order, so
  /// the flag keeps every existing run bit-identical to the seed behaviour.
  bool enable_disconnected_mode = false;
  Duration heartbeat_interval = Millis(500);
  /// Heartbeat intervals of total peer silence before entering a
  /// disconnected epoch.
  int heartbeat_miss_threshold = 4;
  /// Reconcile-offer retransmit interval while the handshake is pending.
  Duration reconcile_retry = Millis(600);
};

/// Counters the experiment harness reads per site.
struct SiteStats {
  uint64_t committed_acquires = 0;
  uint64_t committed_releases = 0;
  uint64_t committed_reads = 0;
  uint64_t rejected = 0;
  uint64_t proactive_redistributions = 0;  ///< instances this site initiated
  uint64_t reactive_redistributions = 0;
  uint64_t instances_completed = 0;  ///< decisions applied (any role)
  uint64_t instances_aborted = 0;
  uint64_t requests_queued = 0;      ///< requests delayed by a redistribution
  Duration time_frozen = 0;          ///< total time spent engaged/frozen

  // --- Disconnected mode (DESIGN.md §12) ----------------------------------
  uint64_t disconnected_epochs = 0;    ///< windows entered
  uint64_t disconnected_served = 0;    ///< writes committed while disconnected
  uint64_t disconnected_rejected = 0;  ///< writes rejected while disconnected
  uint64_t oplog_appends = 0;          ///< records appended to the op-log
  uint64_t oplog_replayed = 0;         ///< records replayed at recovery
  uint64_t reconciles = 0;             ///< epochs folded after reconnect
};

/// \brief A Samya site (§4.1.1): Request Handling, Prediction, Protocol and
/// Redistribution modules over a dis-aggregated token pool.
///
/// Serves acquire/release transactions from its local `TokensLeft`; when its
/// pool cannot cover (observed or predicted) demand, runs Avantan with the
/// other sites to re-balance spare tokens. While participating in an
/// instance, the site's pool is frozen and incoming write transactions queue
/// (§4.3); reads are served from the frozen snapshot. Global-snapshot reads
/// (§5.8) fan out to all sites and aggregate availability.
///
/// Both protocol variants are implemented here, selected by
/// `SiteOptions::protocol`; see messages.h for the instance-id design that
/// makes recovery exactly-once.
class Site : public rt::Node {
 public:
  Site(rt::NodeId id, rt::Region region, SiteOptions opts);
  ~Site() override;

  /// Wires durable storage (call before Start; the cluster owns it).
  void set_storage(storage::StableStorage* storage) { storage_ = storage; }

  void Start() override;
  void HandleMessage(rt::NodeId from, uint32_t type,
                     BufferReader& r) override;
  void HandleTimer(uint64_t token) override;
  void HandleCrash() override;
  void HandleRecover() override;

  // Introspection for tests and experiment harnesses.
  int64_t tokens_left() const { return tokens_left_; }
  int64_t tokens_wanted() const { return tokens_wanted_; }
  bool frozen() const { return engaged_.has_value(); }
  const SiteStats& stats() const { return stats_; }
  size_t queue_depth() const { return queue_.size(); }

  /// Forces a redistribution wanting `wanted` tokens (test hook; normal
  /// triggers are Eq. 4 / Eq. 5).
  void TriggerRedistributionForTest(int64_t wanted);

  /// Decided-instance log (instance id -> agreed StateList). Exposed so the
  /// Theorem 1/2 property tests can assert that no two sites ever decide
  /// different values for the same instance.
  const std::map<InstanceId, StateList>& decided_outcomes() const {
    return outcomes_;
  }

  /// When the current freeze began (meaningful iff `frozen()`); lets an
  /// auditor flag a site stuck engaged long after the network healed.
  SimTime frozen_since() const { return freeze_started_; }

  /// True while the site is inside a disconnected epoch (DESIGN.md §12):
  /// serving strictly from its local pool with every op logged durably,
  /// deaf to Avantan, awaiting the reconcile handshake.
  bool disconnected() const { return disconnected_; }
  /// The disconnected-epoch counter (how many windows this incarnation of
  /// the durable state has entered; 0 = never disconnected).
  uint64_t disconnected_epoch() const { return depoch_; }

  /// Observation hook for continuous invariant auditing: fires whenever this
  /// site locally applies a decided outcome (`value` non-null) or aborts an
  /// instance it was engaged in (`value == nullptr`). Fires after the
  /// decision/abort is fully applied and persisted, before queued requests
  /// drain. Not part of the protocol; pass nullptr to remove.
  using InstanceObserver = std::function<void(
      const Site& site, InstanceId instance, const StateList* value)>;
  void set_instance_observer(InstanceObserver obs) {
    instance_observer_ = std::move(obs);
  }

  /// History tap for linearizability checking: fires in `Respond` with every
  /// final outcome this site sends (including dedup-cache replays). A
  /// `kCommitted` write outcome means the site has applied the transaction,
  /// whether or not the client ever observes the response. Not part of the
  /// protocol; pass nullptr to remove.
  using HistoryTap = std::function<void(uint64_t request_id, TokenStatus)>;
  void set_history_tap(HistoryTap tap) { history_tap_ = std::move(tap); }

 private:
  enum class Role { kNone, kLeader, kCohort };
  enum class LeaderPhase { kIdle, kElection, kAccept };

  // Timer tokens and durable keys that site.cc and avantan.cc both use.
  static constexpr uint64_t kLeaderTimer = 2;
  static constexpr uint64_t kWatchdogTimer = 3;
  static constexpr uint64_t kStatusRetryTimer = 4;
  static constexpr std::string_view kOutcomePrefix = "site/outcome/";
  static constexpr std::string_view kAbortedPrefix = "site/aborted/";
  static std::string OutcomeKey(InstanceId i) {
    return std::string(kOutcomePrefix) + std::to_string(i);
  }
  static std::string AbortedKey(InstanceId i) {
    return std::string(kAbortedPrefix) + std::to_string(i);
  }

  struct QueuedRequest {
    rt::NodeId client = rt::kInvalidNode;
    TokenRequest request;
  };

  struct PendingRead {
    rt::NodeId client = rt::kInvalidNode;
    uint64_t request_id = 0;
    int64_t sum = 0;
    size_t replies = 0;
    uint64_t timer = 0;
  };

  size_t Majority() const { return opts_.sites.size() / 2 + 1; }
  bool IsAnyMode() const { return opts_.protocol == Protocol::kAvantanAny; }

  /// Marks this site engaged in `instance` (freezing its pool) and starts
  /// the freeze-time clock; idempotent while already engaged.
  void Engage(InstanceId instance);
  void AccountUnfreeze();
  /// Flight events of a request not answered in its arrival handler:
  /// `code` is kRequestQueued or kRequestRead; the answer closes the wait.
  void RecordRequestWait(uint16_t code, const TokenRequest& req);
  void RecordRequestAnswered(uint64_t request_id, TokenStatus status);

  // --- Request handling ----------------------------------------------------
  /// Decodes and serves one client request; a corrupt frame is dropped.
  void OnClientRequest(rt::NodeId from, BufferReader& r);
  void ServeOrQueue(rt::NodeId client, const TokenRequest& req);
  /// Serves a request against the local pool. Returns false when an acquire
  /// cannot be satisfied locally (caller decides: redistribute or reject).
  bool ServeLocally(rt::NodeId client, const TokenRequest& req);
  void Respond(rt::NodeId client, uint64_t request_id, TokenStatus status,
               int64_t value);
  void DrainQueue();

  // --- Prediction / triggering (§4.2) --------------------------------------
  void OnEpochTick();
  void MaybeTriggerProactive();
  void TriggerReactive(int64_t needed);
  void StartInstance();

  // --- Avantan common ------------------------------------------------------
  void ApplyDecision(InstanceId instance, const StateList& value);
  void FinishInstanceLocally(InstanceId instance, const StateList& value);
  void AbortInstance(InstanceId instance);
  EntityState BuildInitVal();
  void ResetInstanceState();
  void Persist();
  void LoadDurable();

  void OnElectionGetValue(rt::NodeId from, const ElectionGetValue& m);
  void OnElectionOkValue(rt::NodeId from, const ElectionOkValue& m);
  void OnAcceptValue(rt::NodeId from, const AcceptValue& m);
  void OnAcceptOk(rt::NodeId from, const AcceptOk& m);
  void OnDecisionMsg(rt::NodeId from, const DecisionMsg& m);
  void OnDiscard(rt::NodeId from, const Discard& m);
  void OnStatusQuery(rt::NodeId from, const StatusQuery& m);
  void OnStatusReply(rt::NodeId from, const StatusReply& m);

  // --- Avantan[(n+1)/2] ----------------------------------------------------
  void StartMajorityElection(InstanceId instance, bool recovery);
  void MajorityChooseAndAccept();
  void SendCatchUp(rt::NodeId to, int64_t from_instance);
  void ApplyConsecutiveDecisions();

  // --- Avantan[*] ----------------------------------------------------------
  void StartAnyElection();
  void AnyProceedToAccept();
  void StartAnyRecovery();
  void ConcludeAnyRecovery();

  // --- Disconnected mode (DESIGN.md §12) -----------------------------------
  bool IsPeerSite(rt::NodeId from) const;
  void OnHeartbeatTick();
  void EnterDisconnectedEpoch();
  void BeginReconcile();
  void FinalizeDisconnectedEpoch();
  /// Durable commit for a served/rejected write: the core record normally,
  /// an op-log append inside a disconnected epoch.
  void CommitWriteDurably(const TokenRequest& req, TokenStatus status);

  // --- Reads (§5.8) --------------------------------------------------------
  void StartGlobalRead(rt::NodeId client, const TokenRequest& req);
  void OnReadQuery(rt::NodeId from, const ReadQuery& m);
  void OnReadReply(const ReadReply& m);
  void CompleteRead(uint64_t read_id);

  void SendDecisionTo(rt::NodeId to, InstanceId instance,
                      const StateList& value);
  void BroadcastToOthers(uint32_t type, const BufferWriter& w,
                         const std::vector<rt::NodeId>& targets);

  SiteOptions opts_;
  storage::StableStorage* storage_ = nullptr;
  InstanceObserver instance_observer_;  // audit hook; not protocol state
  HistoryTap history_tap_;              // checker hook; not protocol state

  // --- Token state (the dis-aggregated data) -------------------------------
  int64_t tokens_left_ = 0;
  int64_t tokens_wanted_ = 0;

  // --- Request queue (frozen during redistribution) ------------------------
  std::deque<QueuedRequest> queue_;
  std::unordered_set<uint64_t> queued_ids_;  // duplicate-arrival guard

  // --- Prediction ----------------------------------------------------------
  std::unique_ptr<predict::DemandPredictor> predictor_;
  double demand_this_epoch_ = 0;
  SimTime abort_backoff_until_ = 0;

  // --- Protocol state (Table 1c, keyed by the current instance) ------------
  Ballot ballot_;                      // BallotNum (durable, monotonic)
  std::optional<InstanceId> engaged_;  // instance being participated in
  SimTime freeze_started_ = 0;
  Role role_ = Role::kNone;
  LeaderPhase leader_phase_ = LeaderPhase::kIdle;
  rt::NodeId cohort_leader_ = rt::kInvalidNode;
  StateList accept_val_;   // AcceptVal (durable while engaged)
  Ballot accept_num_;      // AcceptNum
  bool decision_ = false;  // Decision

  // Leader bookkeeping for the in-flight instance.
  bool recovery_mode_ = false;  ///< this election is failure recovery
  std::map<rt::NodeId, ElectionOkValue> election_responses_;
  size_t accept_acks_ = 0;
  std::set<rt::NodeId> accept_ok_from_;
  bool retrigger_after_instance_ = false;

  // Majority mode: the global redistribution sequence.
  int64_t next_instance_ = 0;  // durable
  /// Decided log (durable). Trimmed to the most recent kOutcomeLogSize
  /// instances; sites lagging further behind are fast-forwarded (they cannot
  /// have participated in any instance they missed, so skipping is safe —
  /// see SendCatchUp).
  static constexpr int64_t kOutcomeLogSize = 512;
  std::map<InstanceId, StateList> outcomes_;          // decided log (durable)
  std::map<InstanceId, StateList> pending_decisions_; // future instances

  // Any mode.
  uint32_t any_seq_ = 0;  // durable
  std::set<InstanceId> aborted_;  // discarded instances (durable)
  std::map<rt::NodeId, StatusReply> status_replies_;
  int any_retransmits_ = 0;

  // At-most-once guard: retries happen when a queued request outlives the
  // client's timeout, e.g. across a partition.
  DedupWindow dedup_;

  // Reused by Persist (runs per commit) so it stops allocating per call.
  BufferWriter persist_scratch_;
  // Reused by Respond (runs per client request) and the read fan-out
  // (StartGlobalRead, OnReadQuery); distinct from persist_scratch_ because
  // Persist can run inside the same call chain.
  BufferWriter send_scratch_;

  // Reads, keyed by read id (from 1; keyed lookups only).
  uint64_t next_read_id_ = 1;
  FlatMap64<PendingRead> reads_;

  // --- Disconnected mode (DESIGN.md §12) -----------------------------------
  bool disconnected_ = false;        // inside a disconnected epoch
  uint64_t depoch_ = 0;              // epoch counter (durable)
  uint64_t reconciled_epoch_ = 0;    // last epoch folded into core (durable)
  uint64_t next_oplog_seq_ = 1;      // next op-log record seq
  SimTime last_heard_ = 0;           // last message from any peer site
  bool reconcile_pending_ = false;   // offer sent, awaiting an ack
  uint64_t reconcile_timer_ = 0;

  // Timers.
  uint64_t leader_timer_ = 0;
  uint64_t watchdog_timer_ = 0;

  SiteStats stats_;

  // --- Observability (DESIGN.md §8) ----------------------------------------
  /// The backend's flight recorder for this site, cached at Start; null when
  /// disabled, which reduces every instrumentation site to one predictable
  /// branch. Rounds, phases and request waits are derived from its events
  /// after the run (harness/postmortem.h).
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace samya::core

#endif  // SAMYA_CORE_SITE_H_
