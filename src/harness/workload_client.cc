#include "harness/workload_client.h"

#include "common/macros.h"

namespace samya::harness {

namespace {
// Timer tokens: 0 issues the next scripted request; otherwise the token
// encodes (request_id << 1) | is_retry.
constexpr uint64_t kIssueNext = 0;
uint64_t TimeoutToken(uint64_t id) { return id << 1; }
uint64_t RetryToken(uint64_t id) { return (id << 1) | 1; }
}  // namespace

WorkloadClient::WorkloadClient(sim::NodeId id, sim::Region region,
                               WorkloadClientOptions opts,
                               std::vector<workload::Request> script)
    : Node(id, region), opts_(std::move(opts)), script_(std::move(script)) {
  SAMYA_CHECK(!opts_.servers.empty());
  // Request ids must be globally unique: clients can share an app manager,
  // which keys its routing table by request id.
  next_request_id_ = (static_cast<uint64_t>(id) << 40) + 1;
}

void WorkloadClient::Start() { ScheduleNext(); }

void WorkloadClient::HandleCrash() {
  outstanding_.clear();
  // A crashed client stops issuing (Fig 3c crashes the region's client with
  // its site).
  next_request_ = script_.size();
}

sim::NodeId WorkloadClient::PreferredServer() const {
  return opts_.servers.front();
}

sim::NodeId WorkloadClient::NextServer(sim::NodeId previous) const {
  for (size_t i = 0; i < opts_.servers.size(); ++i) {
    if (opts_.servers[i] == previous) {
      return opts_.servers[(i + 1) % opts_.servers.size()];
    }
  }
  return opts_.servers.front();
}

void WorkloadClient::ScheduleNext() {
  if (next_request_ >= script_.size() || issue_timer_armed_) return;
  if (opts_.closed_loop) {
    // Issue immediately whenever the window has room.
    if (outstanding_.size() < static_cast<size_t>(opts_.window)) {
      issue_timer_armed_ = true;
      SetTimer(0, kIssueNext);
    }
    return;
  }
  const SimTime at = script_[next_request_].at;
  const Duration delay = at > Now() ? at - Now() : 0;
  issue_timer_armed_ = true;
  SetTimer(delay, kIssueNext);
}

void WorkloadClient::IssueNext() {
  while (next_request_ < script_.size() &&
         (opts_.closed_loop
              ? outstanding_.size() < static_cast<size_t>(opts_.window)
              : script_[next_request_].at <= Now())) {
    const workload::Request& r = script_[next_request_++];
    if (r.type == workload::Request::Type::kRelease) {
      // §3.2: never return more tokens than held.
      if (balance_ < r.amount) {
        ++stats_.skipped_releases;
        continue;
      }
      balance_ -= r.amount;
    }
    Outstanding out;
    out.request.request_id = next_request_id_++;
    out.request.amount = r.amount;
    switch (r.type) {
      case workload::Request::Type::kAcquire:
        out.request.op = TokenOp::kAcquire;
        break;
      case workload::Request::Type::kRelease:
        out.request.op = TokenOp::kRelease;
        break;
      case workload::Request::Type::kRead:
        out.request.op = TokenOp::kRead;
        break;
    }
    out.first_sent = Now();
    ++stats_.sent;
    if (opts_.history != nullptr) {
      opts_.history->OnInvoke(id(), out.request, Now());
    }
    Outstanding& slot = *outstanding_.try_emplace(out.request.request_id).first;
    slot = out;
    // Prefer a learned leader hint if it is one of our candidate servers;
    // otherwise the closest server.
    sim::NodeId target = PreferredServer();
    for (sim::NodeId s : opts_.servers) {
      if (s == leader_hint_) target = leader_hint_;
    }
    SendTo(slot, target);
  }
  ScheduleNext();
}

void WorkloadClient::SendTo(Outstanding& out, sim::NodeId target) {
  ++out.attempts;
  out.target = target;
  send_scratch_.Clear();
  out.request.EncodeTo(send_scratch_);
  Send(target, kMsgTokenRequest, send_scratch_);
  out.timeout_timer =
      SetTimer(opts_.request_timeout, TimeoutToken(out.request.request_id));
}

void WorkloadClient::HandleTimer(uint64_t token) {
  if (token == kIssueNext) {
    issue_timer_armed_ = false;
    IssueNext();
    return;
  }
  const uint64_t id = token >> 1;
  const bool is_retry = (token & 1) != 0;
  Outstanding* found = outstanding_.find(id);
  if (found == nullptr) return;
  Outstanding& out = *found;

  if (is_retry) {
    SendTo(out, out.target);
    return;
  }
  // Timeout: try another server or give up.
  if (out.attempts >= opts_.max_attempts) {
    ++stats_.dropped;
    outstanding_.erase(id);
    ScheduleNext();
    return;
  }
  SendTo(out, NextServer(out.target));
}

void WorkloadClient::HandleMessage(sim::NodeId from, uint32_t type,
                                   BufferReader& r) {
  (void)from;
  SAMYA_CHECK_EQ(type, kMsgTokenResponse);
  auto resp = TokenResponse::DecodeFrom(r);
  if (!resp.ok()) return;
  const uint64_t id = resp->request_id;
  Outstanding* found = outstanding_.find(id);
  if (found == nullptr) return;  // duplicate/stale response
  Outstanding& out = *found;
  CancelTimer(out.timeout_timer);

  if (opts_.history != nullptr && (resp->status == TokenStatus::kCommitted ||
                                   resp->status == TokenStatus::kRejected)) {
    opts_.history->OnClientResponse(resp->request_id, resp->status,
                                    resp->value, Now());
  }
  switch (resp->status) {
    case TokenStatus::kCommitted: {
      stats_.latency.Record(Now() - out.first_sent);
      stats_.committed.Record(Now());
      switch (out.request.op) {
        case TokenOp::kAcquire:
          ++stats_.committed_acquires;
          stats_.acquire_latency.Record(Now() - out.first_sent);
          balance_ += out.request.amount;
          break;
        case TokenOp::kRelease:
          ++stats_.committed_releases;
          break;
        case TokenOp::kRead:
          ++stats_.committed_reads;
          break;
      }
      outstanding_.erase(id);
      ScheduleNext();
      return;
    }
    case TokenStatus::kRejected:
      ++stats_.rejected;
      // A definitive non-commit: a rejected release did not return tokens,
      // so the client still holds them. (Timeout drops are ambiguous — the
      // request may commit later — so those never restore balance.)
      if (out.request.op == TokenOp::kRelease) {
        balance_ += out.request.amount;
      }
      outstanding_.erase(id);
      ScheduleNext();
      return;
    case TokenStatus::kNotLeader: {
      if (out.attempts >= opts_.max_attempts) {
        ++stats_.dropped;
        if (out.request.op == TokenOp::kRelease) {
          balance_ += out.request.amount;  // definitive: never applied
        }
        outstanding_.erase(id);
        ScheduleNext();
        return;
      }
      if (resp->leader_hint >= 0) {
        leader_hint_ = resp->leader_hint;
        SendTo(out, resp->leader_hint);
      } else {
        SendTo(out, NextServer(out.target));
      }
      return;
    }
    case TokenStatus::kOverloaded: {
      if (out.attempts >= opts_.max_attempts) {
        ++stats_.dropped;
        if (out.request.op == TokenOp::kRelease) {
          balance_ += out.request.amount;  // definitive: never applied
        }
        outstanding_.erase(id);
        ScheduleNext();
        return;
      }
      out.timeout_timer = 0;
      SetTimer(opts_.overload_backoff, RetryToken(out.request.request_id));
      return;
    }
  }
}

}  // namespace samya::harness
