#include "core/site.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"
#include "core/op_log.h"

namespace samya::core {

namespace {
constexpr uint64_t kEpochTimer = 1;
constexpr uint64_t kHeartbeatTimer = 6;
constexpr uint64_t kReconcileRetryTimer = 7;

uint64_t ReadTimerToken(uint64_t read_id) { return (read_id << 3) | 5; }
bool IsReadTimer(uint64_t token) { return (token & 7) == 5; }
uint64_t ReadIdOf(uint64_t token) { return token >> 3; }

const char* kKeyCore = "site/core";
}  // namespace

Site::Site(rt::NodeId id, rt::Region region, SiteOptions opts)
    : Node(id, region), opts_(std::move(opts)) {
  SAMYA_CHECK(!opts_.sites.empty());
  if (opts_.reallocator == nullptr) {
    opts_.reallocator = std::make_shared<GreedyReallocator>();
  }
  if (!opts_.predictor_factory) {
    const size_t period = opts_.seasonal_period;
    opts_.predictor_factory = [period] {
      return predict::MakeSeasonalNaive(period);
    };
  }
}

Site::~Site() = default;

void Site::Start() {
  flight_ = runtime()->flight_for(id());
  tokens_left_ = opts_.initial_tokens;
  LoadDurable();
  predictor_ = opts_.predictor_factory();
  if (!opts_.training_series.empty()) {
    Status st = predictor_->Train(opts_.training_series);
    SAMYA_CHECK_MSG(st.ok(), "predictor training failed: %s",
                    st.ToString().c_str());
  }
  SetTimer(opts_.epoch, kEpochTimer);
  if (opts_.enable_disconnected_mode && opts_.sites.size() > 1) {
    last_heard_ = Now();
    SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
  }
}

void Site::HandleCrash() {
  queue_.clear();
  queued_ids_.clear();
  dedup_.Clear();
  reads_.clear();
  election_responses_.clear();
  status_replies_.clear();
  pending_decisions_.clear();
  accept_ok_from_.clear();
  engaged_.reset();
  role_ = Role::kNone;
  leader_phase_ = LeaderPhase::kIdle;
  cohort_leader_ = rt::kInvalidNode;
  accept_val_ = StateList{};
  accept_num_ = Ballot{};
  decision_ = false;
  tokens_left_ = 0;
  tokens_wanted_ = 0;
  ballot_ = Ballot{};
  next_instance_ = 0;
  any_seq_ = 0;
  outcomes_.clear();
  aborted_.clear();
  demand_this_epoch_ = 0;
  predictor_.reset();
  disconnected_ = false;
  depoch_ = 0;
  reconciled_epoch_ = 0;
  next_oplog_seq_ = 1;
  last_heard_ = 0;
  reconcile_pending_ = false;
}

void Site::HandleRecover() {
  tokens_left_ = opts_.initial_tokens;
  LoadDurable();
  predictor_ = opts_.predictor_factory();
  if (!opts_.training_series.empty()) {
    (void)predictor_->Train(opts_.training_series);
  }
  SetTimer(opts_.epoch, kEpochTimer);
  if (opts_.enable_disconnected_mode && opts_.sites.size() > 1) {
    last_heard_ = Now();
    SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
  }
  if (engaged_.has_value()) {
    // We crashed mid-instance; resume as a cohort and let the watchdog drive
    // recovery for the engaged instance.
    role_ = Role::kCohort;
    leader_phase_ = LeaderPhase::kIdle;
    watchdog_timer_ = SetTimer(
        opts_.watchdog_timeout + rng().UniformInt(0, Millis(200)),
        kWatchdogTimer);
  }
}

void Site::Persist() {
  if (storage_ == nullptr) return;
  // One record for all of the site's durable scalars. Persist runs on every
  // commit, so the old one-key-per-field layout (5 Puts, 5 fresh writers)
  // was a measurable slice of the request hot path.
  persist_scratch_.Clear();
  BufferWriter& w = persist_scratch_;
  w.PutVarintSigned(tokens_left_);
  w.PutVarintSigned(tokens_wanted_);
  ballot_.EncodeTo(w);
  w.PutVarintSigned(next_instance_);
  w.PutVarint(any_seq_);
  w.PutBool(engaged_.has_value());
  w.PutVarintSigned(engaged_.value_or(0));
  accept_val_.EncodeTo(w);
  accept_num_.EncodeTo(w);
  w.PutBool(decision_);
  w.PutVarintSigned(cohort_leader_);
  w.PutVarint(depoch_);
  w.PutVarint(reconciled_epoch_);
  SAMYA_CHECK(storage_->Put(kKeyCore, w.buffer()).ok());
}

void Site::LoadDurable() {
  if (storage_ == nullptr) return;
  if (auto v = storage_->Get(kKeyCore); v.ok()) {
    BufferReader r(*v);
    tokens_left_ = r.GetVarintSigned().value();
    tokens_wanted_ = r.GetVarintSigned().value();
    ballot_ = Ballot::DecodeFrom(r).value();
    next_instance_ = r.GetVarintSigned().value();
    any_seq_ = static_cast<uint32_t>(r.GetVarint().value());
    const bool engaged = r.GetBool().value();
    const InstanceId instance = r.GetVarintSigned().value();
    accept_val_ = StateList::DecodeFrom(r).value();
    accept_num_ = Ballot::DecodeFrom(r).value();
    decision_ = r.GetBool().value();
    cohort_leader_ = static_cast<rt::NodeId>(r.GetVarintSigned().value());
    engaged_ = engaged ? std::optional<InstanceId>(instance) : std::nullopt;
    depoch_ = r.GetVarint().value();
    reconciled_epoch_ = r.GetVarint().value();
  }
  switch (DisconnectedOpLog::RecoveryDecision(storage_, reconciled_epoch_)) {
    case OpLogRecoveryAction::kNone:
      break;
    case OpLogRecoveryAction::kDiscard:
      // Crashed between folding a reconciled epoch into the core record and
      // clearing its log: the fold already happened, so the log must not be
      // applied again.
      SAMYA_CHECK(DisconnectedOpLog::Clear(storage_).ok());
      break;
    case OpLogRecoveryAction::kReplay: {
      // Crashed inside a disconnected window. The epoch entry pins the pool
      // at entry and every record pins the pool after its op, so replay is a
      // set — running it again after another crash lands on the same state.
      auto epoch = DisconnectedOpLog::ReadEpoch(storage_);
      auto ops = DisconnectedOpLog::ReadOps(storage_);
      SAMYA_CHECK(epoch.ok() && ops.ok());
      const auto replay = DisconnectedOpLog::Replay(*epoch, *ops);
      tokens_left_ = replay.pool;
      next_oplog_seq_ = replay.next_seq;
      for (const auto& [rid, value] : replay.committed_writes) {
        dedup_.Remember(rid, value);
      }
      stats_.oplog_replayed += ops->size();
      disconnected_ = true;
      depoch_ = epoch->epoch;
      if (flight_ != nullptr) {
        flight_->Record(Now(), id(), obs::FlightKind::kOpLogReplay, 0,
                        static_cast<int64_t>(ops->size()),
                        static_cast<int64_t>(epoch->epoch), replay.pool);
      }
      break;
    }
  }
  for (const auto& key : storage_->Keys()) {
    if (key.starts_with(kOutcomePrefix)) {
      auto v = storage_->Get(key);
      SAMYA_CHECK(v.ok());
      BufferReader r(*v);
      outcomes_[std::stoll(key.substr(kOutcomePrefix.size()))] =
          StateList::DecodeFrom(r).value();
    } else if (key.starts_with(kAbortedPrefix)) {
      aborted_.insert(std::stoll(key.substr(kAbortedPrefix.size())));
    }
  }
}

void Site::HandleTimer(uint64_t token) {
  if (token == kEpochTimer) {
    OnEpochTick();
    return;
  }
  if (IsReadTimer(token)) {
    CompleteRead(ReadIdOf(token));
    return;
  }
  if (token == kLeaderTimer) {
    if (role_ != Role::kLeader || !engaged_.has_value()) return;
    const InstanceId instance = *engaged_;
    if (leader_phase_ == LeaderPhase::kElection) {
      if (!IsAnyMode() && recovery_mode_) {
        // A recovery election could not reach a majority; stay engaged
        // (blocked, per §4.3.1) and retry after a backoff.
        role_ = Role::kCohort;
        leader_phase_ = LeaderPhase::kIdle;
        watchdog_timer_ = SetTimer(
            opts_.watchdog_timeout +
                rng().UniformInt(0, opts_.watchdog_timeout / 2),
            kWatchdogTimer);
        return;
      }
      // Fresh instance, no value constructed yet: aborting is safe
      // (§4.3.1 Fault Tolerance) — our snapshot never left this site.
      if (IsAnyMode()) {
        BufferWriter w;
        Discard{instance, ballot_}.EncodeTo(w);
        for (const auto& [site, _] : election_responses_) {
          if (site != id()) Send(site, kMsgDiscard, w);
        }
      }
      AbortInstance(instance);
      return;
    }
    // Accept phase stalled: the value may contain other sites' snapshots,
    // so aborting is no longer safe; run failure recovery instead.
    if (IsAnyMode()) {
      StartAnyRecovery();
    } else {
      StartMajorityElection(instance, /*recovery=*/true);
    }
    return;
  }
  if (token == kWatchdogTimer) {
    if (role_ != Role::kCohort || !engaged_.has_value()) return;
    const InstanceId instance = *engaged_;
    SAMYA_LOG_DEBUG("site %d watchdog fired for instance %lld", id(),
                    static_cast<long long>(instance));
    if (IsAnyMode()) {
      if (accept_val_.empty()) {
        // §4.3.2 recovery case (i): we never accepted, so the leader cannot
        // have decided; refusing the instance from now on makes this safe.
        aborted_.insert(instance);
        if (storage_ != nullptr) {
          SAMYA_CHECK(storage_->Put(AbortedKey(instance), {}).ok());
        }
        AbortInstance(instance);
      } else {
        StartAnyRecovery();
      }
    } else {
      StartMajorityElection(instance, /*recovery=*/true);
    }
    return;
  }
  if (token == kStatusRetryTimer) {
    if (engaged_.has_value() && !accept_val_.empty()) StartAnyRecovery();
    return;
  }
  if (token == kHeartbeatTimer) {
    OnHeartbeatTick();
    return;
  }
  if (token == kReconcileRetryTimer) {
    // The offer (or its ack) was lost; keep offering until one lands.
    if (disconnected_ && reconcile_pending_) BeginReconcile();
    return;
  }
  SAMYA_CHECK_MSG(false, "site %d: unexpected timer token %llu", id(),
                  static_cast<unsigned long long>(token));
}

// --------------------------------------------------------------------------
// Request handling (§4.1.2 steps 1-3)
// --------------------------------------------------------------------------

void Site::HandleMessage(rt::NodeId from, uint32_t type, BufferReader& r) {
  if (opts_.enable_disconnected_mode && IsPeerSite(from)) {
    last_heard_ = Now();
    // Hearing any peer again while disconnected is the reconnect edge:
    // start the reconcile handshake (then still process this message).
    if (disconnected_ && !reconcile_pending_) BeginReconcile();
  }
  if (disconnected_ && type >= kMsgElectionGetValue &&
      type <= kMsgStatusReply) {
    // Deaf to Avantan inside a disconnected epoch: engaging would let a
    // decided value capture a pool snapshot the op-log is authoritative
    // for. To peers this is indistinguishable from partition loss; normal
    // catch-up covers any missed instances after reconcile.
    return;
  }
  switch (type) {
    case kMsgTokenRequest:
      OnClientRequest(from, r);
      break;
    // Avantan / read traffic: decode through Result and drop corrupt frames.
    // Each DecodeFrom builds the message on the stack and only then is the
    // handler entered, so a truncated payload mutates no site state.
    case kMsgElectionGetValue: {
      auto m = ElectionGetValue::DecodeFrom(r);
      if (m.ok()) OnElectionGetValue(from, *m);
      break;
    }
    case kMsgElectionOkValue: {
      auto m = ElectionOkValue::DecodeFrom(r);
      if (m.ok()) OnElectionOkValue(from, *m);
      break;
    }
    case kMsgAcceptValue: {
      auto m = AcceptValue::DecodeFrom(r);
      if (m.ok()) OnAcceptValue(from, *m);
      break;
    }
    case kMsgAcceptOk: {
      auto m = AcceptOk::DecodeFrom(r);
      if (m.ok()) OnAcceptOk(from, *m);
      break;
    }
    case kMsgDecision: {
      auto m = DecisionMsg::DecodeFrom(r);
      if (m.ok()) OnDecisionMsg(from, *m);
      break;
    }
    case kMsgDiscard: {
      auto m = Discard::DecodeFrom(r);
      if (m.ok()) OnDiscard(from, *m);
      break;
    }
    case kMsgStatusQuery: {
      auto m = StatusQuery::DecodeFrom(r);
      if (m.ok()) OnStatusQuery(from, *m);
      break;
    }
    case kMsgStatusReply: {
      auto m = StatusReply::DecodeFrom(r);
      if (m.ok()) OnStatusReply(from, *m);
      break;
    }
    case kMsgReadQuery: {
      auto m = ReadQuery::DecodeFrom(r);
      if (m.ok()) OnReadQuery(from, *m);
      break;
    }
    case kMsgReadReply: {
      auto m = ReadReply::DecodeFrom(r);
      if (m.ok()) OnReadReply(*m);
      break;
    }
    case kMsgSiteHeartbeat:
      break;  // liveness already noted in the prologue
    case kMsgReconcileOffer: {
      // The offering site's durable op-log is authoritative; an ack just
      // confirms the group heard the epoch summary so the offerer can fold.
      auto m = ReconcileOffer::DecodeFrom(r);
      if (!m.ok()) break;
      BufferWriter w;
      ReconcileAck{m->epoch}.EncodeTo(w);
      Send(from, kMsgReconcileAck, w);
      break;
    }
    case kMsgReconcileAck: {
      auto m = ReconcileAck::DecodeFrom(r);
      if (!m.ok()) break;
      if (disconnected_ && reconcile_pending_ && m->epoch == depoch_) {
        if (flight_ != nullptr) {
          flight_->Record(Now(), id(), obs::FlightKind::kReconcileAck, 0,
                          static_cast<int64_t>(m->epoch), from);
        }
        FinalizeDisconnectedEpoch();
      }
      break;
    }
    default:
      // Unknown type: dropped, not asserted. The simulator never produces
      // one, but the real backend's port is reachable by stale frames from
      // an earlier run with a different node layout.
      SAMYA_LOG_DEBUG("site %d: dropping unknown message type %u from %d",
                      id(), type, from);
      break;
  }
}

void Site::OnClientRequest(rt::NodeId from, BufferReader& r) {
  auto req = TokenRequest::DecodeFrom(r);
  if (!req.ok()) return;
  if (req->op != TokenOp::kRead && req->amount <= 0) {
    Respond(from, req->request_id, TokenStatus::kRejected, tokens_left_);
    return;
  }
  if (req->op != TokenOp::kRead) {
    if (const int64_t* cached = dedup_.Lookup(req->request_id)) {
      Respond(from, req->request_id, TokenStatus::kCommitted, *cached);
      return;
    }
    // A retry of a request that is still queued: stay silent; the queued
    // copy will answer when it drains.
    if (queued_ids_.count(req->request_id) > 0) return;
  }
  if (req->op == TokenOp::kAcquire) {
    demand_this_epoch_ += static_cast<double>(req->amount);
  }
  if (req->op != TokenOp::kRead && frozen()) {
    // §4.3: queue writes until the redistribution instance terminates.
    queue_.push_back(QueuedRequest{from, *req});
    queued_ids_.insert(req->request_id);
    ++stats_.requests_queued;
    RecordRequestWait(obs::kRequestQueued, *req);
    return;
  }
  ServeOrQueue(from, *req);
}

void Site::ServeOrQueue(rt::NodeId client, const TokenRequest& req) {
  if (ServeLocally(client, req)) return;

  // Unservable acquire: trigger a reactive redistribution (Eq. 5) unless
  // redistribution is disabled, recently aborted, or the site is inside a
  // disconnected epoch (no peers reachable — reject instead of freezing).
  if (!disconnected_ && opts_.enable_redistribution &&
      Now() >= abort_backoff_until_) {
    queue_.push_back(QueuedRequest{client, req});
    queued_ids_.insert(req.request_id);
    ++stats_.requests_queued;
    // Recorded before the trigger: the round's election_start then shares
    // this event's (site, at).
    RecordRequestWait(obs::kRequestQueued, req);
    TriggerReactive(req.amount);
    return;
  }
  ++stats_.rejected;
  if (disconnected_) CommitWriteDurably(req, TokenStatus::kRejected);
  Respond(client, req.request_id, TokenStatus::kRejected, tokens_left_);
}

bool Site::ServeLocally(rt::NodeId client, const TokenRequest& req) {
  switch (req.op) {
    case TokenOp::kAcquire:
      if (!opts_.enforce_constraint) {
        tokens_left_ -= req.amount;  // unconstrained baseline: may go negative
        ++stats_.committed_acquires;
        if (flight_ != nullptr) {
          flight_->Record(Now(), id(), obs::FlightKind::kPoolDelta,
                          obs::kPoolServe, -req.amount, tokens_left_,
                          static_cast<int64_t>(req.request_id));
        }
        Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
        return true;
      }
      if (tokens_left_ >= req.amount) {
        tokens_left_ -= req.amount;
        CommitWriteDurably(req, TokenStatus::kCommitted);
        ++stats_.committed_acquires;
        dedup_.Remember(req.request_id, tokens_left_);
        if (flight_ != nullptr) {
          flight_->Record(Now(), id(), obs::FlightKind::kPoolDelta,
                          obs::kPoolServe, -req.amount, tokens_left_,
                          static_cast<int64_t>(req.request_id));
        }
        Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
        return true;
      }
      return false;
    case TokenOp::kRelease:
      tokens_left_ += req.amount;
      CommitWriteDurably(req, TokenStatus::kCommitted);
      ++stats_.committed_releases;
      dedup_.Remember(req.request_id, tokens_left_);
      if (flight_ != nullptr) {
        flight_->Record(Now(), id(), obs::FlightKind::kPoolDelta,
                        obs::kPoolServe, req.amount, tokens_left_,
                        static_cast<int64_t>(req.request_id));
      }
      Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
      return true;
    case TokenOp::kRead:
      StartGlobalRead(client, req);
      return true;
  }
  return false;
}

void Site::Respond(rt::NodeId client, uint64_t request_id, TokenStatus status,
                   int64_t value) {
  if (history_tap_) history_tap_(request_id, status);
  TokenResponse resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.value = value;
  send_scratch_.Clear();
  resp.EncodeTo(send_scratch_);
  Send(client, kMsgTokenResponse, send_scratch_);
}

void Site::DrainQueue() {
  // Serve in arrival order; acquires the refreshed pool cannot satisfy are
  // rejected rather than re-triggering, so a dry global pool cannot livelock
  // redistribution (new arrivals may trigger again).
  while (!frozen() && !queue_.empty()) {
    QueuedRequest q = std::move(queue_.front());
    queue_.pop_front();
    queued_ids_.erase(q.request.request_id);
    TokenStatus status = TokenStatus::kCommitted;
    if (!ServeLocally(q.client, q.request)) {
      ++stats_.rejected;
      status = TokenStatus::kRejected;
      Respond(q.client, q.request.request_id, status, tokens_left_);
    }
    RecordRequestAnswered(q.request.request_id, status);
  }
}

// --------------------------------------------------------------------------
// Prediction & triggering (§4.2)
// --------------------------------------------------------------------------

void Site::OnEpochTick() {
  if (predictor_ != nullptr) predictor_->Observe(demand_this_epoch_);
  demand_this_epoch_ = 0;
  MaybeTriggerProactive();
  SetTimer(opts_.epoch, kEpochTimer);
}

void Site::MaybeTriggerProactive() {
  if (!opts_.enable_prediction || !opts_.enable_redistribution) return;
  if (frozen() || predictor_ == nullptr) return;
  if (Now() < abort_backoff_until_) return;
  const double predicted = predictor_->PredictNext();
  if (predicted > static_cast<double>(tokens_left_)) {
    // Eq. 4's trigger: the next epoch's demand cannot be met locally. The
    // request is sized for the provisioning horizon so one redistribution
    // covers a whole demand ramp instead of one epoch at a time.
    const double provision =
        predicted * static_cast<double>(opts_.prediction_horizon_epochs);
    tokens_wanted_ = static_cast<int64_t>(provision) - tokens_left_;
    ++stats_.proactive_redistributions;
    StartInstance();
  }
}

void Site::TriggerReactive(int64_t needed) {
  // Eq. 5: TokensWanted = m (plus any predicted shortfall already pending).
  tokens_wanted_ = std::max(tokens_wanted_, needed);
  ++stats_.reactive_redistributions;
  StartInstance();
}

void Site::TriggerRedistributionForTest(int64_t wanted) {
  tokens_wanted_ = wanted;
  StartInstance();
}

void Site::StartInstance() {
  if (frozen() || disconnected_ || !opts_.enable_redistribution) return;
  if (IsAnyMode()) {
    StartAnyElection();
  } else {
    StartMajorityElection(next_instance_, /*recovery=*/false);
  }
}

// --------------------------------------------------------------------------
// Global-snapshot reads (§5.8)
// --------------------------------------------------------------------------

void Site::StartGlobalRead(rt::NodeId client, const TokenRequest& req) {
  if (opts_.sites.size() == 1 || disconnected_) {
    // Degraded read inside a disconnected epoch: answer from the local pool
    // immediately rather than fanning out into a dead partition. The local
    // pool is always within [0, M], which is all kBoundedSafety requires.
    ++stats_.committed_reads;
    Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
    return;
  }
  const uint64_t read_id = next_read_id_++;
  PendingRead& pending = *reads_.try_emplace(read_id).first;
  pending.client = client;
  pending.request_id = req.request_id;
  pending.timer = SetTimer(opts_.read_timeout, ReadTimerToken(read_id));
  RecordRequestWait(obs::kRequestRead, req);
  send_scratch_.Clear();
  ReadQuery{read_id}.EncodeTo(send_scratch_);
  for (rt::NodeId site : opts_.sites) {
    if (site != id()) Send(site, kMsgReadQuery, send_scratch_);
  }
}

void Site::OnReadQuery(rt::NodeId from, const ReadQuery& m) {
  send_scratch_.Clear();
  ReadReply{m.read_id, tokens_left_}.EncodeTo(send_scratch_);
  Send(from, kMsgReadReply, send_scratch_);
}

void Site::OnReadReply(const ReadReply& m) {
  PendingRead* pending = reads_.find(m.read_id);
  if (pending == nullptr) return;
  pending->sum += m.tokens_left;
  ++pending->replies;
  if (pending->replies == opts_.sites.size() - 1) {
    CancelTimer(pending->timer);
    CompleteRead(m.read_id);
  }
}

void Site::CompleteRead(uint64_t read_id) {
  const PendingRead* pending = reads_.find(read_id);
  if (pending == nullptr) return;
  ++stats_.committed_reads;
  Respond(pending->client, pending->request_id, TokenStatus::kCommitted,
          pending->sum + tokens_left_);
  RecordRequestAnswered(pending->request_id, TokenStatus::kCommitted);
  reads_.erase(read_id);
}

// --------------------------------------------------------------------------
// Disconnected mode (DESIGN.md §12)
// --------------------------------------------------------------------------

bool Site::IsPeerSite(rt::NodeId from) const {
  if (from == id()) return false;
  for (rt::NodeId site : opts_.sites) {
    if (site == from) return true;
  }
  return false;
}

void Site::OnHeartbeatTick() {
  BufferWriter w;
  SiteHeartbeat{depoch_}.EncodeTo(w);
  for (rt::NodeId site : opts_.sites) {
    if (site != id()) Send(site, kMsgSiteHeartbeat, w);
  }
  // Entry requires an unfrozen pool: an engaged site's snapshot may already
  // sit inside a value the reachable majority decides, so its pool is not
  // safe to serve from (§4.3.1) — it stays blocked instead.
  if (!disconnected_ && !frozen() && queue_.empty() &&
      Now() - last_heard_ >= static_cast<Duration>(
                                 opts_.heartbeat_miss_threshold) *
                                 opts_.heartbeat_interval) {
    EnterDisconnectedEpoch();
  }
  SetTimer(opts_.heartbeat_interval, kHeartbeatTimer);
}

void Site::EnterDisconnectedEpoch() {
  ++depoch_;
  disconnected_ = true;
  next_oplog_seq_ = 1;
  ++stats_.disconnected_epochs;
  // Order matters for crash atomicity: the core record first (pins the
  // entry pool and the bumped epoch counter), then the epoch record. A
  // crash between the two recovers as "never entered" with the exact entry
  // pool — no ops can have been logged yet.
  Persist();
  if (storage_ != nullptr) {
    SAMYA_CHECK(
        DisconnectedOpLog::BeginEpoch(storage_, depoch_, tokens_left_).ok());
  }
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kEpochEnter, 0,
                    static_cast<int64_t>(depoch_), tokens_left_);
  }
  SAMYA_LOG_DEBUG("site %d entered disconnected epoch %llu with pool %lld",
                  id(), static_cast<unsigned long long>(depoch_),
                  static_cast<long long>(tokens_left_));
}

void Site::BeginReconcile() {
  reconcile_pending_ = true;
  ReconcileOffer offer;
  offer.epoch = depoch_;
  offer.ops_logged = next_oplog_seq_ - 1;
  if (storage_ != nullptr) {
    if (auto e = DisconnectedOpLog::ReadEpoch(storage_); e.ok()) {
      offer.net_delta = tokens_left_ - e->pool_at_entry;
    }
  }
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kReconcileOffer, 0,
                    static_cast<int64_t>(offer.epoch),
                    static_cast<int64_t>(offer.ops_logged), offer.net_delta);
  }
  BufferWriter w;
  offer.EncodeTo(w);
  for (rt::NodeId site : opts_.sites) {
    if (site != id()) Send(site, kMsgReconcileOffer, w);
  }
  CancelTimer(reconcile_timer_);
  reconcile_timer_ = SetTimer(opts_.reconcile_retry, kReconcileRetryTimer);
}

void Site::FinalizeDisconnectedEpoch() {
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kEpochExit, 0,
                    static_cast<int64_t>(depoch_),
                    static_cast<int64_t>(stats_.disconnected_served),
                    static_cast<int64_t>(stats_.oplog_appends));
  }
  reconciled_epoch_ = depoch_;
  disconnected_ = false;
  reconcile_pending_ = false;
  CancelTimer(reconcile_timer_);
  // Fold before clear: the core record with reconciled_epoch == depoch is
  // the commit point. A crash between the two leaves a log recovery will
  // discard (RecoveryDecision) — replaying twice equals once.
  Persist();
  if (storage_ != nullptr) {
    SAMYA_CHECK(DisconnectedOpLog::Clear(storage_).ok());
  }
  ++stats_.reconciles;
  SAMYA_LOG_DEBUG("site %d reconciled disconnected epoch %llu, pool %lld",
                  id(), static_cast<unsigned long long>(depoch_),
                  static_cast<long long>(tokens_left_));
}

void Site::CommitWriteDurably(const TokenRequest& req, TokenStatus status) {
  if (!disconnected_) {
    Persist();
    return;
  }
  OpLogRecord rec;
  rec.seq = next_oplog_seq_++;
  rec.request_id = req.request_id;
  rec.op = req.op;
  rec.amount = req.amount;
  rec.status = status;
  rec.pool_after = tokens_left_;
  if (storage_ != nullptr) {
    SAMYA_CHECK(DisconnectedOpLog::Append(storage_, rec).ok());
  }
  ++stats_.oplog_appends;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kOpLogAppend,
                    status == TokenStatus::kCommitted ? 1 : 2,
                    static_cast<int64_t>(rec.seq), rec.pool_after, req.amount);
  }
  if (status == TokenStatus::kCommitted) {
    ++stats_.disconnected_served;
  } else {
    ++stats_.disconnected_rejected;
  }
}

// --------------------------------------------------------------------------
// Shared helpers
// --------------------------------------------------------------------------

void Site::SendDecisionTo(rt::NodeId to, InstanceId instance,
                          const StateList& value) {
  BufferWriter w;
  DecisionMsg{instance, ballot_, value}.EncodeTo(w);
  Send(to, kMsgDecision, w);
}

void Site::BroadcastToOthers(uint32_t type, const BufferWriter& w,
                             const std::vector<rt::NodeId>& targets) {
  for (rt::NodeId site : targets) {
    if (site != id()) Send(site, type, w);
  }
}

void Site::Engage(InstanceId instance) {
  if (!engaged_.has_value()) {
    freeze_started_ = Now();
    if (flight_ != nullptr) {
      flight_->Record(Now(), id(), obs::FlightKind::kPhase, obs::kPhaseEngage,
                      instance, tokens_left_);
    }
  }
  engaged_ = instance;
}

void Site::RecordRequestWait(uint16_t code, const TokenRequest& req) {
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kRequest, code,
                    static_cast<int64_t>(req.request_id), req.amount);
  }
}

void Site::RecordRequestAnswered(uint64_t request_id, TokenStatus status) {
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kRequest,
                    obs::kRequestAnswered, static_cast<int64_t>(request_id),
                    static_cast<int64_t>(status));
  }
}

void Site::AccountUnfreeze() {
  if (engaged_.has_value()) stats_.time_frozen += Now() - freeze_started_;
}

EntityState Site::BuildInitVal() {
  return EntityState{id(), tokens_left_, tokens_wanted_};
}

void Site::ResetInstanceState() {
  accept_val_ = StateList{};
  accept_num_ = Ballot{};
  decision_ = false;
  election_responses_.clear();
  status_replies_.clear();
  accept_ok_from_.clear();
  role_ = Role::kNone;
  leader_phase_ = LeaderPhase::kIdle;
  recovery_mode_ = false;
  cohort_leader_ = rt::kInvalidNode;
  CancelTimer(leader_timer_);
  CancelTimer(watchdog_timer_);
}

}  // namespace samya::core
