#include "baselines/bounded_counter.h"

#include <algorithm>

#include "common/macros.h"

namespace samya::baselines {

namespace {
constexpr uint64_t kGossipTimer = 1;
constexpr uint64_t kTransferTimeoutTimer = 2;
constexpr const char* kKeyRows = "bc/rows";
}  // namespace

BoundedCounterSite::BoundedCounterSite(rt::NodeId id, rt::Region region,
                                       BoundedCounterOptions opts)
    : Node(id, region), opts_(std::move(opts)) {
  SAMYA_CHECK(!opts_.sites.empty());
  SAMYA_CHECK_EQ(opts_.sites.size(), opts_.initial_shares.size());
  my_slot_ = SlotOf(this->id());
}

size_t BoundedCounterSite::SlotOf(rt::NodeId site) const {
  for (size_t i = 0; i < opts_.sites.size(); ++i) {
    if (opts_.sites[i] == site) return i;
  }
  SAMYA_CHECK_MSG(false, "bounded-counter: node %d not in site list", site);
  return 0;
}

int64_t BoundedCounterSite::RightsOf(size_t slot) const {
  const Row& row = rows_[slot];
  int64_t rights = row.inc - row.dec;
  for (int64_t o : row.out) rights -= o;
  for (const Row& other : rows_) rights += other.out[slot];
  return rights;
}

int64_t BoundedCounterSite::visible_value() const {
  int64_t v = 0;
  for (const Row& row : rows_) v += row.inc - row.dec;
  return v;
}

void BoundedCounterSite::SeedRows() {
  // Version-0 rows seeded from the (globally known) initial allocation.
  // Identical on every replica, so the first gossip exchanges nothing new;
  // any real update bumps the owner's version past 0 and replaces.
  rows_.assign(opts_.sites.size(), Row{});
  for (size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].inc = opts_.initial_shares[i];
    rows_[i].out.assign(opts_.sites.size(), 0);
  }
}

void BoundedCounterSite::Start() {
  flight_ = runtime()->flight_for(id());
  if (!LoadRows()) SeedRows();
  last_heard_ = Now();
  SetTimer(opts_.gossip_interval, kGossipTimer);
}

void BoundedCounterSite::HandleCrash() {
  // Volatile state dies; rows_ reload from storage on recovery (every commit
  // persisted them first). The dedup cache is volatile — a lost entry can at
  // worst double-apply a retried write, which moves the row and the stats
  // ledger together, so conservation is unaffected. stats_ survive: they are
  // the experiment's measurement, not node state (mirrors core::Site).
  rows_.clear();
  queue_.clear();
  transferring_ = false;
  needed_ = 0;
  candidates_.clear();
  outstanding_transfer_ = 0;
  transfer_timer_ = 0;
  disconnected_ = false;
  last_heard_ = 0;
  dedup_.Clear();
}

void BoundedCounterSite::HandleRecover() { Start(); }

void BoundedCounterSite::PersistRows() {
  if (storage_ == nullptr) return;
  BufferWriter w;
  EncodeRows(w);
  storage_->Put(kKeyRows, w.buffer());
}

bool BoundedCounterSite::LoadRows() {
  if (storage_ == nullptr) return false;
  auto blob = storage_->Get(kKeyRows);
  if (!blob.ok()) return false;
  SeedRows();  // right shape; decode overwrites
  BufferReader r(*blob);
  return MergeRows(r) || true;
}

void BoundedCounterSite::EncodeRows(BufferWriter& w) const {
  w.PutVarint(rows_.size());
  for (const Row& row : rows_) {
    w.PutVarint(row.ver);
    w.PutVarintSigned(row.inc);
    w.PutVarintSigned(row.dec);
    for (int64_t o : row.out) w.PutVarintSigned(o);
  }
}

bool BoundedCounterSite::MergeRows(BufferReader& r) {
  auto count = r.GetVarint();
  if (!count.ok() || *count != rows_.size()) return false;
  bool changed = false;
  for (size_t i = 0; i < rows_.size(); ++i) {
    Row incoming;
    incoming.out.resize(rows_.size());
    auto ver = r.GetVarint();
    auto inc = r.GetVarintSigned();
    auto dec = r.GetVarintSigned();
    if (!ver.ok() || !inc.ok() || !dec.ok()) return changed;
    incoming.ver = *ver;
    incoming.inc = *inc;
    incoming.dec = *dec;
    for (size_t j = 0; j < rows_.size(); ++j) {
      auto o = r.GetVarintSigned();
      if (!o.ok()) return changed;
      incoming.out[j] = *o;
    }
    // Version-replace: only the owner bumps its row, so highest wins. Own
    // row is never replaced from the wire (we are the authority) — except
    // at load time, when rows_ holds seeds and my_slot_'s ver is 0.
    if (incoming.ver > rows_[i].ver) {
      rows_[i] = std::move(incoming);
      changed = true;
    }
  }
  return changed;
}

void BoundedCounterSite::NoteHeardFrom() {
  last_heard_ = Now();
  if (disconnected_) {
    disconnected_ = false;
    ++stats_.reconciles;
    // Rows merged while away travel out on the next gossip tick; nothing
    // else to reconcile — the op effects are already in our durable row.
  }
}

void BoundedCounterSite::HandleTimer(uint64_t token) {
  if (token == kGossipTimer) {
    SendGossip();
    if (!disconnected_ &&
        Now() - last_heard_ >= static_cast<Duration>(
                                   opts_.disconnect_miss_threshold) *
                                   opts_.gossip_interval) {
      disconnected_ = true;
      ++stats_.disconnected_windows;
      // Abandon any in-flight transfer round: the peer cannot answer, and
      // the queue should fail fast instead of stalling behind the timeout.
      if (transferring_) {
        transferring_ = false;
        outstanding_transfer_ = 0;
        candidates_.clear();
        CancelTimer(transfer_timer_);
        DrainQueue();
      }
    }
    SetTimer(opts_.gossip_interval, kGossipTimer);
    return;
  }
  SAMYA_CHECK_EQ(token, kTransferTimeoutTimer);
  if (!transferring_) return;
  outstanding_transfer_ = 0;
  AskRichestPeer();
}

void BoundedCounterSite::SendGossip() {
  ++stats_.gossip_rounds;
  BufferWriter w;
  EncodeRows(w);
  std::vector<rt::NodeId> peers;
  for (rt::NodeId peer : opts_.sites) {
    if (peer != id()) peers.push_back(peer);
  }
  for (int k = 0; k < opts_.gossip_fanout && !peers.empty(); ++k) {
    const size_t pick = rng().NextUint64(peers.size());
    Send(peers[pick], kMsgBcGossip, w);
    peers.erase(peers.begin() + static_cast<long>(pick));
  }
}

void BoundedCounterSite::OnGossip(rt::NodeId from, BufferReader& r) {
  const bool changed = MergeRows(r);
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kGossipMerge, 0, from,
                    changed ? 1 : 0, local_rights());
  }
}

void BoundedCounterSite::HandleMessage(rt::NodeId from, uint32_t type,
                                       BufferReader& r) {
  switch (type) {
    case kMsgTokenRequest: {
      auto req = TokenRequest::DecodeFrom(r);
      if (!req.ok()) return;
      if (req->op != TokenOp::kRead && req->amount <= 0) {
        Respond(from, req->request_id, TokenStatus::kRejected, local_rights());
        return;
      }
      if (req->op != TokenOp::kRead) {
        if (const int64_t* cached = dedup_.Lookup(req->request_id)) {
          Respond(from, req->request_id, TokenStatus::kCommitted, *cached);
          return;
        }
      }
      ServeOrTransfer(from, *req);
      return;
    }
    case kMsgBcGossip:
      NoteHeardFrom();
      OnGossip(from, r);
      return;
    case kMsgBcTransferRequest:
      NoteHeardFrom();
      OnTransferRequest(from, r);
      return;
    case kMsgBcTransferReply:
      NoteHeardFrom();
      OnTransferReply(r);
      return;
    default:
      SAMYA_CHECK_MSG(false, "bounded-counter: unknown message type %u", type);
  }
}

void BoundedCounterSite::ServeOrTransfer(rt::NodeId client,
                                         const TokenRequest& req) {
  if (transferring_ && req.op == TokenOp::kAcquire) {
    queue_.push_back(QueuedRequest{client, req});
    return;
  }
  if (ServeLocally(client, req)) return;
  if (disconnected_) {
    // No reachable donor; fail fast from local rights (degraded mode).
    Respond(client, req.request_id, TokenStatus::kRejected, local_rights());
    ++stats_.rejected;
    return;
  }
  queue_.push_back(QueuedRequest{client, req});
  StartTransferRound(req.amount + opts_.transfer_slack);
}

bool BoundedCounterSite::ServeLocally(rt::NodeId client,
                                      const TokenRequest& req) {
  Row& mine = rows_[my_slot_];
  switch (req.op) {
    case TokenOp::kAcquire:
      if (local_rights() >= req.amount) {
        mine.dec += req.amount;
        ++mine.ver;
        PersistRows();
        ++stats_.committed_acquires;
        dedup_.Remember(req.request_id, local_rights());
        Respond(client, req.request_id, TokenStatus::kCommitted,
                local_rights());
        return true;
      }
      return false;
    case TokenOp::kRelease:
      mine.inc += req.amount;
      ++mine.ver;
      PersistRows();
      ++stats_.committed_releases;
      dedup_.Remember(req.request_id, local_rights());
      Respond(client, req.request_id, TokenStatus::kCommitted, local_rights());
      return true;
    case TokenOp::kRead: {
      // The merged row set is a (possibly stale) global snapshot for free;
      // clamp to the invariant range the CRDT enforces.
      const int64_t v =
          std::clamp<int64_t>(visible_value(), 0, opts_.global_tokens);
      ++stats_.committed_reads;
      Respond(client, req.request_id, TokenStatus::kCommitted, v);
      return true;
    }
  }
  return false;
}

void BoundedCounterSite::StartTransferRound(int64_t needed) {
  transferring_ = true;
  needed_ = needed;
  ++stats_.transfers_requested;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kRightsTransfer,
                    obs::kTransferRequested, needed, local_rights());
  }
  candidates_.clear();
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i != my_slot_) candidates_.push_back(i);
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [this](size_t a, size_t b) { return RightsOf(a) > RightsOf(b); });
  AskRichestPeer();
}

void BoundedCounterSite::AskRichestPeer() {
  while (!candidates_.empty() && RightsOf(candidates_.front()) <= 0) {
    candidates_.erase(candidates_.begin());
  }
  if (candidates_.empty() || needed_ <= 0 || disconnected_) {
    transferring_ = false;
    DrainQueue();
    return;
  }
  const size_t slot = candidates_.front();
  candidates_.erase(candidates_.begin());
  outstanding_transfer_ = next_transfer_id_++;
  BufferWriter w;
  w.PutU64(outstanding_transfer_);
  w.PutVarintSigned(needed_);
  Send(opts_.sites[slot], kMsgBcTransferRequest, w);
  CancelTimer(transfer_timer_);
  transfer_timer_ = SetTimer(opts_.transfer_timeout, kTransferTimeoutTimer);
}

void BoundedCounterSite::OnTransferRequest(rt::NodeId from, BufferReader& r) {
  auto transfer_id_r = r.GetU64();
  auto requested_r = r.GetVarintSigned();
  if (!transfer_id_r.ok() || !requested_r.ok()) return;
  const uint64_t transfer_id = *transfer_id_r;
  const int64_t requested = *requested_r;
  const size_t asker = SlotOf(from);
  // Grant up to half the donor's rights; the debit (out[me][asker]) is
  // persisted before the grant travels, so a crash here loses the grant but
  // never duplicates it — the asker only gains rights once it holds the row.
  const int64_t granted =
      std::clamp<int64_t>(requested, 0, local_rights() / 2);
  if (granted > 0) {
    Row& mine = rows_[my_slot_];
    mine.out[asker] += granted;
    ++mine.ver;
    PersistRows();
    ++stats_.transfers_granted;
    if (flight_ != nullptr) {
      flight_->Record(Now(), id(), obs::FlightKind::kRightsTransfer,
                      obs::kTransferGranted, granted, from, local_rights());
    }
  }
  BufferWriter w;
  w.PutU64(transfer_id);
  w.PutVarintSigned(granted);
  // Piggyback the full row set: the asker's credit becomes visible the
  // moment the reply lands instead of waiting a gossip round.
  EncodeRows(w);
  Send(from, kMsgBcTransferReply, w);
}

void BoundedCounterSite::OnTransferReply(BufferReader& r) {
  auto transfer_id_r = r.GetU64();
  auto granted_r = r.GetVarintSigned();
  if (!transfer_id_r.ok() || !granted_r.ok()) return;
  const uint64_t transfer_id = *transfer_id_r;
  const int64_t granted = *granted_r;
  MergeRows(r);  // delivers the donor's bumped row (and anything newer)
  if (transfer_id != outstanding_transfer_) return;  // stale/timed out
  outstanding_transfer_ = 0;
  CancelTimer(transfer_timer_);
  needed_ -= granted;
  if (flight_ != nullptr) {
    flight_->Record(Now(), id(), obs::FlightKind::kRightsTransfer,
                    obs::kTransferReceived, granted, needed_, local_rights());
  }
  if (needed_ > 0) {
    AskRichestPeer();
  } else {
    transferring_ = false;
    DrainQueue();
  }
}

void BoundedCounterSite::DrainQueue() {
  while (!transferring_ && !queue_.empty()) {
    QueuedRequest q = std::move(queue_.front());
    queue_.pop_front();
    if (ServeLocally(q.client, q.request)) continue;
    if (!candidates_.empty() && !disconnected_) {
      queue_.push_front(std::move(q));
      transferring_ = true;
      needed_ = queue_.front().request.amount + opts_.transfer_slack;
      AskRichestPeer();
      return;
    }
    Respond(q.client, q.request.request_id, TokenStatus::kRejected,
            local_rights());
    ++stats_.rejected;
  }
}

void BoundedCounterSite::Respond(rt::NodeId client, uint64_t request_id,
                                 TokenStatus status, int64_t value) {
  if (history_tap_) history_tap_(request_id, status);
  TokenResponse resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.value = value;
  BufferWriter w;
  resp.EncodeTo(w);
  Send(client, kMsgTokenResponse, w);
}

}  // namespace samya::baselines
