#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"
#include "core/site.h"

/// \file
/// The Avantan protocol logic of `Site`: Algorithm 1 (majority version), the
/// any-subset variant of §4.3.2, and both failure-recovery procedures.

namespace samya::core {

namespace {
constexpr uint64_t kLeaderTimer = 2;
constexpr uint64_t kWatchdogTimer = 3;
constexpr uint64_t kStatusRetryTimer = 4;
constexpr int kMaxAcceptRetransmits = 3;

std::string AbortedKey(InstanceId i) {
  return "site/aborted/" + std::to_string(i);
}
std::string OutcomeKey(InstanceId i) {
  return "site/outcome/" + std::to_string(i);
}
}  // namespace

// --------------------------------------------------------------------------
// Avantan[(n+1)/2] — Algorithm 1
// --------------------------------------------------------------------------

void Site::StartMajorityElection(InstanceId instance, bool recovery) {
  // Election-GetValue (lines 1-4): bump the ballot, snapshot InitVal, ask
  // everyone for their state. Also the failure-recovery entry point: a
  // cohort that times out re-runs this for the same instance with
  // recovery=true, which keeps un-engaged sites out of the value.
  CancelTimer(leader_timer_);
  CancelTimer(watchdog_timer_);
  role_ = Role::kLeader;
  leader_phase_ = LeaderPhase::kElection;
  recovery_mode_ = recovery;
  phase_started_ = Now();
  Engage(instance);
  ballot_ = Ballot{ballot_.num + 1, id()};
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    recovery ? obs::kPhaseRecoveryStart
                             : obs::kPhaseElectionStart,
                    instance, ballot_.num);
  }
  election_responses_.clear();
  accept_ok_from_.clear();

  ElectionOkValue self;
  self.instance = instance;
  self.ballot = ballot_;
  self.kind = ElectionOkValue::Kind::kOk;
  self.init_val = BuildInitVal();
  self.accept_val = accept_val_;
  self.accept_num = accept_num_;
  self.decision = decision_;
  election_responses_[id()] = self;
  Persist();

  SAMYA_LOG_DEBUG("site %d leads instance %lld at ballot %s", id(),
                  static_cast<long long>(instance),
                  ballot_.ToString().c_str());
  BufferWriter w;
  ElectionGetValue{instance, ballot_, recovery}.EncodeTo(w);
  BroadcastToOthers(kMsgElectionGetValue, w, opts_.sites);
  leader_timer_ = SetTimer(opts_.election_timeout, kLeaderTimer);

  if (election_responses_.size() >= Majority()) MajorityChooseAndAccept();
}

void Site::OnElectionGetValue(rt::NodeId from, const ElectionGetValue& m) {
  if (IsAnyMode()) {
    // Change (ii) of §4.3.2: while engaged, reject all other leaders'
    // elections, even at higher ballots.
    if (engaged_.has_value()) return;
    if (outcomes_.count(m.instance) > 0) {
      ElectionOkValue resp;
      resp.instance = m.instance;
      resp.ballot = m.ballot;
      resp.kind = ElectionOkValue::Kind::kAlreadyDecided;
      resp.decided_value = outcomes_[m.instance];
      BufferWriter w;
      resp.EncodeTo(w);
      Send(from, kMsgElectionOkValue, w);
      return;
    }
    if (aborted_.count(m.instance) > 0) return;
    if (!(m.ballot > ballot_)) return;
    ballot_ = m.ballot;
    Engage(m.instance);
    role_ = Role::kCohort;
    cohort_leader_ = from;
  } else {
    if (m.instance < next_instance_) {
      // We already applied this redistribution: hand the outcome over.
      ElectionOkValue resp;
      resp.instance = m.instance;
      resp.ballot = m.ballot;
      resp.kind = ElectionOkValue::Kind::kAlreadyDecided;
      auto it = outcomes_.find(m.instance);
      if (it != outcomes_.end()) resp.decided_value = it->second;
      BufferWriter w;
      resp.EncodeTo(w);
      Send(from, kMsgElectionOkValue, w);
      return;
    }
    if (m.instance > next_instance_) {
      // We missed earlier decisions; ask the leader to catch us up.
      ElectionOkValue resp;
      resp.instance = m.instance;
      resp.ballot = m.ballot;
      resp.kind = ElectionOkValue::Kind::kBehind;
      resp.next_instance = next_instance_;
      BufferWriter w;
      resp.EncodeTo(w);
      Send(from, kMsgElectionOkValue, w);
      return;
    }
    // Current instance: standard promise rule (lines 6-8).
    if (!(m.ballot > ballot_)) return;
    ballot_ = m.ballot;
    if (role_ == Role::kLeader) {
      // Preempted by a higher ballot: step down to cohort.
      CancelTimer(leader_timer_);
      leader_phase_ = LeaderPhase::kIdle;
      role_ = Role::kCohort;
    }
    if (!engaged_.has_value() && m.recovery) {
      // Recovery elections must not freeze fresh sites: we act as a pure
      // acceptor, sharing our (possibly empty) accept state but offering no
      // tokens. We keep serving clients throughout.
      Persist();
      ElectionOkValue resp;
      resp.instance = m.instance;
      resp.ballot = ballot_;
      resp.kind = ElectionOkValue::Kind::kOk;
      resp.has_init_val = false;
      resp.accept_val = accept_val_;
      resp.accept_num = accept_num_;
      resp.decision = decision_;
      BufferWriter w;
      resp.EncodeTo(w);
      Send(from, kMsgElectionOkValue, w);
      return;
    }
    Engage(m.instance);
    role_ = Role::kCohort;
    cohort_leader_ = from;
  }

  // Lines 9-12: refresh TokensWanted from the Prediction Module before
  // reporting InitVal (sized to the provisioning horizon, like the
  // proactive trigger).
  if (opts_.enable_prediction && predictor_ != nullptr) {
    const double predicted = predictor_->PredictNext();
    if (predicted > static_cast<double>(tokens_left_)) {
      const double provision =
          predicted * static_cast<double>(opts_.prediction_horizon_epochs);
      tokens_wanted_ =
          std::max(tokens_wanted_,
                   static_cast<int64_t>(provision) - tokens_left_);
    }
  }
  Persist();

  ElectionOkValue resp;
  resp.instance = m.instance;
  resp.ballot = ballot_;
  resp.kind = ElectionOkValue::Kind::kOk;
  resp.init_val = BuildInitVal();
  resp.accept_val = accept_val_;
  resp.accept_num = accept_num_;
  resp.decision = decision_;
  BufferWriter w;
  resp.EncodeTo(w);
  Send(from, kMsgElectionOkValue, w);

  CancelTimer(watchdog_timer_);
  watchdog_timer_ = SetTimer(
      opts_.watchdog_timeout + rng().UniformInt(0, opts_.watchdog_timeout / 2),
      kWatchdogTimer);
}

void Site::OnElectionOkValue(rt::NodeId from, const ElectionOkValue& m) {
  if (role_ != Role::kLeader || leader_phase_ != LeaderPhase::kElection)
    return;
  if (!engaged_.has_value() || *engaged_ != m.instance) return;

  switch (m.kind) {
    case ElectionOkValue::Kind::kAlreadyDecided: {
      if (!m.decided_value.empty()) {
        ApplyDecision(m.instance, m.decided_value);
      }
      return;
    }
    case ElectionOkValue::Kind::kBehind: {
      SendCatchUp(from, m.next_instance);
      return;
    }
    case ElectionOkValue::Kind::kOk:
      break;
  }
  if (m.ballot != ballot_) return;
  election_responses_[from] = m;

  if (IsAnyMode()) {
    // Change (i) of §4.3.2: proceed as soon as the collected TokensLeft can
    // satisfy our own requirement, with whatever subset responded.
    int64_t collected = 0;
    for (const auto& [site, resp] : election_responses_) {
      collected += resp.init_val.tokens_left;
    }
    if (collected >= tokens_wanted_) AnyProceedToAccept();
  } else {
    if (election_responses_.size() >= Majority()) MajorityChooseAndAccept();
  }
}

void Site::MajorityChooseAndAccept() {
  SAMYA_CHECK(engaged_.has_value());
  const InstanceId instance = *engaged_;
  CancelTimer(leader_timer_);
  if (hist_election_us_ != nullptr) {
    hist_election_us_->Record(Now() - phase_started_);
  }

  // Value choice (lines 15-23) including the failure-recovery rules.
  bool chosen_decision = false;
  StateList chosen;
  Ballot best_accept_num;
  bool have_accepted = false;
  for (const auto& [site, resp] : election_responses_) {
    if (resp.decision) {
      chosen = resp.accept_val;
      chosen_decision = true;
      break;
    }
    if (!resp.accept_val.empty() &&
        (!have_accepted || resp.accept_num > best_accept_num)) {
      chosen = resp.accept_val;
      best_accept_num = resp.accept_num;
      have_accepted = true;
    }
  }
  if (!chosen_decision && !have_accepted) {
    // Failure-free: AcceptVal = concatenation of the received InitVals
    // (line 22), ordered by site id so every replica derives the same list.
    // Recovery responders without InitVals contributed only acceptor state.
    for (const auto& [site, resp] : election_responses_) {
      if (!resp.has_init_val) continue;
      chosen.entries.push_back(resp.init_val);
    }
    std::sort(chosen.entries.begin(), chosen.entries.end(),
              [](const EntityState& a, const EntityState& b) {
                return a.site < b.site;
              });
  }

  if (chosen_decision) {
    // Someone already learned the decision: just distribute it.
    BufferWriter w;
    DecisionMsg{instance, ballot_, chosen}.EncodeTo(w);
    BroadcastToOthers(kMsgDecision, w, opts_.sites);
    ApplyDecision(instance, chosen);
    return;
  }

  accept_val_ = chosen;
  accept_num_ = ballot_;
  decision_ = false;
  Persist();
  leader_phase_ = LeaderPhase::kAccept;
  accept_ok_from_ = {id()};
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    obs::kPhaseAcceptStart, instance,
                    static_cast<int64_t>(accept_val_.entries.size()));
  }

  phase_started_ = Now();
  BufferWriter w;
  AcceptValue{instance, ballot_, accept_val_, false}.EncodeTo(w);
  BroadcastToOthers(kMsgAcceptValue, w, opts_.sites);
  leader_timer_ = SetTimer(opts_.accept_timeout, kLeaderTimer);

  if (accept_ok_from_.size() >= Majority()) {
    // Single-site deployment.
    OnAcceptOk(id(), AcceptOk{instance, ballot_});
  }
}

void Site::OnAcceptValue(rt::NodeId from, const AcceptValue& m) {
  if (IsAnyMode()) {
    if (outcomes_.count(m.instance) > 0) {
      BufferWriter w;
      AcceptOk{m.instance, m.ballot}.EncodeTo(w);
      Send(from, kMsgAcceptOk, w);
      return;
    }
    if (aborted_.count(m.instance) > 0) return;  // refused instance
    if (!engaged_.has_value() || *engaged_ != m.instance) return;
  } else {
    if (m.instance < next_instance_) {
      // Already applied: help the stalled leader terminate.
      auto it = outcomes_.find(m.instance);
      if (it != outcomes_.end()) SendDecisionTo(from, m.instance, it->second);
      return;
    }
    if (m.instance > next_instance_) return;  // behind; recover via election
    if (m.ballot < ballot_) return;           // promised someone newer
    ballot_ = m.ballot;
    if (role_ == Role::kLeader && from != id()) {
      CancelTimer(leader_timer_);
      leader_phase_ = LeaderPhase::kIdle;
      role_ = Role::kCohort;
    }
    // Storing acceptor state does not require freezing: we only freeze when
    // our own snapshot is part of the value (or we were already engaged).
    if (engaged_.has_value() || m.value.Contains(id())) {
      Engage(m.instance);
      role_ = Role::kCohort;
      cohort_leader_ = from;
    }
  }

  // Lines 26-31.
  accept_val_ = m.value;
  accept_num_ = m.ballot;
  decision_ = m.decision;
  Persist();

  BufferWriter w;
  AcceptOk{m.instance, m.ballot}.EncodeTo(w);
  Send(from, kMsgAcceptOk, w);

  if (engaged_.has_value()) {
    CancelTimer(watchdog_timer_);
    watchdog_timer_ = SetTimer(
        opts_.watchdog_timeout +
            rng().UniformInt(0, opts_.watchdog_timeout / 2),
        kWatchdogTimer);
  }
}

void Site::OnAcceptOk(rt::NodeId from, const AcceptOk& m) {
  if (role_ != Role::kLeader || leader_phase_ != LeaderPhase::kAccept) return;
  if (!engaged_.has_value() || *engaged_ != m.instance) return;
  if (m.ballot != ballot_) return;
  accept_ok_from_.insert(from);

  const size_t needed =
      IsAnyMode() ? accept_val_.entries.size() : Majority();
  if (accept_ok_from_.size() < needed) return;

  // Decision (lines 33-35).
  decision_ = true;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase, obs::kPhaseDecided,
                    m.instance,
                    static_cast<int64_t>(accept_ok_from_.size()));
  }
  CancelTimer(leader_timer_);
  if (hist_accept_us_ != nullptr) {
    hist_accept_us_->Record(Now() - phase_started_);
  }
  const InstanceId instance = *engaged_;
  const StateList value = accept_val_;
  BufferWriter w;
  DecisionMsg{instance, ballot_, value}.EncodeTo(w);
  if (IsAnyMode()) {
    BroadcastToOthers(kMsgDecision, w, value.Participants());
  } else {
    BroadcastToOthers(kMsgDecision, w, opts_.sites);
  }
  ApplyDecision(instance, value);
}

void Site::SendCatchUp(rt::NodeId to, int64_t from_instance) {
  // A site behind the trimmed log cannot have participated in the missing
  // instances (participation requires being current), so its tokens are in
  // none of the lost values: fast-forwarding it is safe. We send the oldest
  // retained decisions; ApplyDecision fast-forwards past the gap below.
  for (int64_t t = from_instance; t < next_instance_; ++t) {
    auto it = outcomes_.find(t);
    if (it != outcomes_.end()) SendDecisionTo(to, t, it->second);
  }
}

// --------------------------------------------------------------------------
// Avantan[*] — §4.3.2
// --------------------------------------------------------------------------

void Site::StartAnyElection() {
  const InstanceId instance = MakeAnyInstance(id(), any_seq_++);
  CancelTimer(leader_timer_);
  CancelTimer(watchdog_timer_);
  role_ = Role::kLeader;
  leader_phase_ = LeaderPhase::kElection;
  phase_started_ = Now();
  Engage(instance);
  ballot_ = Ballot{ballot_.num + 1, id()};
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    obs::kPhaseElectionStart, instance, ballot_.num);
  }
  election_responses_.clear();
  accept_ok_from_.clear();
  any_retransmits_ = 0;

  ElectionOkValue self;
  self.instance = instance;
  self.ballot = ballot_;
  self.kind = ElectionOkValue::Kind::kOk;
  self.init_val = BuildInitVal();
  election_responses_[id()] = self;
  Persist();

  BufferWriter w;
  ElectionGetValue{instance, ballot_}.EncodeTo(w);
  BroadcastToOthers(kMsgElectionGetValue, w, opts_.sites);
  leader_timer_ = SetTimer(opts_.election_timeout, kLeaderTimer);

  if (tokens_left_ >= tokens_wanted_ || opts_.sites.size() == 1) {
    AnyProceedToAccept();
  }
}

void Site::AnyProceedToAccept() {
  SAMYA_CHECK(engaged_.has_value());
  const InstanceId instance = *engaged_;
  CancelTimer(leader_timer_);
  leader_phase_ = LeaderPhase::kAccept;
  if (hist_election_us_ != nullptr) {
    hist_election_us_->Record(Now() - phase_started_);
  }
  phase_started_ = Now();

  // R_t = exactly the sites whose InitVals we collected (change i).
  accept_val_ = StateList{};
  for (const auto& [site, resp] : election_responses_) {
    accept_val_.entries.push_back(resp.init_val);
  }
  std::sort(accept_val_.entries.begin(), accept_val_.entries.end(),
            [](const EntityState& a, const EntityState& b) {
              return a.site < b.site;
            });
  accept_num_ = ballot_;
  decision_ = false;
  Persist();
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    obs::kPhaseAcceptStart, instance,
                    static_cast<int64_t>(accept_val_.entries.size()));
  }

  // Non-participants are told to discard the instance.
  BufferWriter wd;
  Discard{instance, ballot_}.EncodeTo(wd);
  for (rt::NodeId site : opts_.sites) {
    if (site != id() && !accept_val_.Contains(site)) {
      Send(site, kMsgDiscard, wd);
    }
  }

  accept_ok_from_ = {id()};
  BufferWriter w;
  AcceptValue{instance, ballot_, accept_val_, false}.EncodeTo(w);
  BroadcastToOthers(kMsgAcceptValue, w, accept_val_.Participants());
  leader_timer_ = SetTimer(opts_.accept_timeout, kLeaderTimer);

  if (accept_ok_from_.size() >= accept_val_.entries.size()) {
    OnAcceptOk(id(), AcceptOk{instance, ballot_});
  }
}

void Site::StartAnyRecovery() {
  SAMYA_CHECK(engaged_.has_value());
  SAMYA_CHECK(!accept_val_.empty());
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    obs::kPhaseRecoveryStart, *engaged_, any_retransmits_);
  }
  if (decision_) {
    ApplyDecision(*engaged_, accept_val_);
    return;
  }
  // Retransmit Accept-Value a few times first (cheap), then probe R_t.
  if (role_ == Role::kLeader && any_retransmits_ < kMaxAcceptRetransmits) {
    ++any_retransmits_;
    BufferWriter w;
    AcceptValue{*engaged_, ballot_, accept_val_, false}.EncodeTo(w);
    for (rt::NodeId site : accept_val_.Participants()) {
      if (site != id() && accept_ok_from_.count(site) == 0) {
        Send(site, kMsgAcceptValue, w);
      }
    }
    leader_timer_ = SetTimer(opts_.accept_timeout, kLeaderTimer);
    return;
  }

  status_replies_.clear();
  BufferWriter w;
  StatusQuery{*engaged_}.EncodeTo(w);
  BroadcastToOthers(kMsgStatusQuery, w, accept_val_.Participants());
  CancelTimer(watchdog_timer_);
  watchdog_timer_ = SetTimer(
      opts_.watchdog_timeout + rng().UniformInt(0, opts_.watchdog_timeout / 2),
      kStatusRetryTimer);
}

void Site::OnStatusQuery(rt::NodeId from, const StatusQuery& m) {
  StatusReply reply;
  reply.instance = m.instance;
  auto decided = outcomes_.find(m.instance);
  if (decided != outcomes_.end()) {
    reply.kind = StatusReply::Kind::kDecided;
    reply.value = decided->second;
  } else if (engaged_.has_value() && *engaged_ == m.instance &&
             !accept_val_.empty()) {
    reply.kind = StatusReply::Kind::kAccepted;
    reply.value = accept_val_;
  } else {
    // We never accepted this instance. Promise never to: record it as
    // aborted so a delayed Accept-Value cannot resurrect it — that promise
    // is what makes the inquirer's abort verdict safe.
    reply.kind = StatusReply::Kind::kAborted;
    if (aborted_.insert(m.instance).second && storage_ != nullptr) {
      SAMYA_CHECK(storage_->Put(AbortedKey(m.instance), {}).ok());
    }
    if (engaged_.has_value() && *engaged_ == m.instance) {
      AbortInstance(m.instance);
    }
  }
  BufferWriter w;
  reply.EncodeTo(w);
  Send(from, kMsgStatusReply, w);
}

void Site::OnStatusReply(rt::NodeId from, const StatusReply& m) {
  if (!engaged_.has_value() || *engaged_ != m.instance) return;
  switch (m.kind) {
    case StatusReply::Kind::kDecided:
      ApplyDecision(m.instance, m.value);
      return;
    case StatusReply::Kind::kAborted: {
      // Tell the rest of R_t, then abort locally.
      BufferWriter w;
      Discard{m.instance, ballot_}.EncodeTo(w);
      BroadcastToOthers(kMsgDiscard, w, accept_val_.Participants());
      aborted_.insert(m.instance);
      if (storage_ != nullptr) {
        SAMYA_CHECK(storage_->Put(AbortedKey(m.instance), {}).ok());
      }
      AbortInstance(m.instance);
      return;
    }
    case StatusReply::Kind::kAccepted:
      status_replies_[from] = m;
      ConcludeAnyRecovery();
      return;
    case StatusReply::Kind::kUnknown:
      return;
  }
}

void Site::ConcludeAnyRecovery() {
  // §4.3.2 recovery: if every other member of R_t holds the identical
  // AcceptVal (and nobody decided or aborted), the value was stored on all
  // of R_t — decide it.
  SAMYA_CHECK(engaged_.has_value());
  const auto participants = accept_val_.Participants();
  size_t accepted = 1;  // self
  for (rt::NodeId site : participants) {
    if (site == id()) continue;
    auto it = status_replies_.find(site);
    if (it == status_replies_.end()) return;  // still waiting
    if (!(it->second.value == accept_val_)) return;
    ++accepted;
  }
  if (accepted < participants.size()) return;
  const InstanceId instance = *engaged_;
  const StateList value = accept_val_;
  decision_ = true;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    obs::kPhaseRecoveryConclude, instance,
                    static_cast<int64_t>(participants.size()));
  }
  BufferWriter w;
  DecisionMsg{instance, ballot_, value}.EncodeTo(w);
  BroadcastToOthers(kMsgDecision, w, participants);
  ApplyDecision(instance, value);
}

// --------------------------------------------------------------------------
// Termination paths shared by both versions
// --------------------------------------------------------------------------

void Site::OnDecisionMsg(rt::NodeId from, const DecisionMsg& m) {
  (void)from;
  ApplyDecision(m.instance, m.value);
}

void Site::OnDiscard(rt::NodeId from, const Discard& m) {
  (void)from;
  if (outcomes_.count(m.instance) > 0) return;
  aborted_.insert(m.instance);
  if (storage_ != nullptr) {
    SAMYA_CHECK(storage_->Put(AbortedKey(m.instance), {}).ok());
  }
  if (engaged_.has_value() && *engaged_ == m.instance) {
    AbortInstance(m.instance);
  }
}

void Site::ApplyDecision(InstanceId instance, const StateList& value) {
  if (IsAnyMode()) {
    if (outcomes_.count(instance) > 0) return;
    if (aborted_.count(instance) > 0) {
      SAMYA_LOG_ERROR(
          "site %d: decision for instance it aborted (%lld) — dropped", id(),
          static_cast<long long>(instance));
      return;
    }
    FinishInstanceLocally(instance, value);
    return;
  }
  if (instance < next_instance_) return;  // duplicate
  if (instance > next_instance_) {
    if (!engaged_.has_value() &&
        instance >= next_instance_ + kOutcomeLogSize) {
      // We are so far behind that the cluster has trimmed the decisions we
      // missed. We were not engaged, hence not a participant in any of
      // them: fast-forward and apply from here.
      SAMYA_LOG_INFO("site %d fast-forwards %lld -> %lld", id(),
                     static_cast<long long>(next_instance_),
                     static_cast<long long>(instance));
      next_instance_ = instance;
      FinishInstanceLocally(instance, value);
      ApplyConsecutiveDecisions();
      return;
    }
    pending_decisions_[instance] = value;
    return;
  }
  FinishInstanceLocally(instance, value);
  ApplyConsecutiveDecisions();
}

void Site::ApplyConsecutiveDecisions() {
  for (auto it = pending_decisions_.find(next_instance_);
       it != pending_decisions_.end();
       it = pending_decisions_.find(next_instance_)) {
    const StateList value = it->second;
    pending_decisions_.erase(it);
    FinishInstanceLocally(next_instance_, value);
  }
}

void Site::FinishInstanceLocally(InstanceId instance, const StateList& value) {
  outcomes_[instance] = value;
  if (storage_ != nullptr) {
    BufferWriter w;
    value.EncodeTo(w);
    SAMYA_CHECK(storage_->Put(OutcomeKey(instance), w.buffer()).ok());
  }

  if (value.Contains(id())) {
    // §4.4: all participants pooled their tokens; our new TokensLeft is the
    // deterministic allocation computed from the agreed list.
    const int64_t before = tokens_left_;
    const auto allocations = opts_.reallocator->Reallocate(value);
    for (const auto& a : allocations) {
      if (a.site == id()) {
        tokens_left_ = a.tokens_granted;
        break;
      }
    }
    tokens_wanted_ = 0;
    if (flight_ != nullptr) {
      flight_->Record(Now(), id(), obs::FlightKind::kPoolDelta,
                      obs::kPoolReallocation, tokens_left_ - before,
                      tokens_left_, instance);
    }
  }

  const bool was_engaged = engaged_.has_value() && *engaged_ == instance;
  if (was_engaged) {
    if (hist_instance_us_ != nullptr) {
      hist_instance_us_->Record(Now() - freeze_started_);
    }
    AccountUnfreeze();
    engaged_.reset();
    ResetInstanceState();
  } else if (!engaged_.has_value()) {
    // We held bare acceptor state for this instance; clear the slot so it
    // cannot leak into the next instance's recovery.
    ResetInstanceState();
  }
  if (!IsAnyMode()) {
    next_instance_ = std::max(next_instance_, instance + 1);
    // Bound the decided log: anything older than kOutcomeLogSize instances
    // is only needed to catch up sites that are further behind than that,
    // which SendCatchUp handles by fast-forwarding them instead.
    while (!outcomes_.empty() &&
           outcomes_.begin()->first < next_instance_ - kOutcomeLogSize) {
      if (storage_ != nullptr) {
        SAMYA_CHECK(
            storage_->Delete(OutcomeKey(outcomes_.begin()->first)).ok());
      }
      outcomes_.erase(outcomes_.begin());
    }
  }
  ++stats_.instances_completed;
  Persist();
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase,
                    was_engaged ? obs::kPhaseFinish : obs::kPhaseApply,
                    instance, tokens_left_);
  }
  SAMYA_LOG_DEBUG("site %d applied instance %lld: tokens_left=%lld", id(),
                  static_cast<long long>(instance),
                  static_cast<long long>(tokens_left_));
  if (instance_observer_) instance_observer_(*this, instance, &value);
  if (was_engaged) DrainQueue();
}

void Site::AbortInstance(InstanceId instance) {
  if (!engaged_.has_value() || *engaged_ != instance) return;
  ++stats_.instances_aborted;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kPhase, obs::kPhaseAbort,
                    instance, tokens_left_);
  }
  AccountUnfreeze();
  engaged_.reset();
  ResetInstanceState();
  tokens_wanted_ = 0;
  abort_backoff_until_ = Now() + opts_.abort_backoff;
  Persist();
  SAMYA_LOG_DEBUG("site %d aborted instance %lld", id(),
                  static_cast<long long>(instance));
  if (instance_observer_) instance_observer_(*this, instance, nullptr);
  DrainQueue();
}

}  // namespace samya::core
