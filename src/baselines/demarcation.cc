#include "baselines/demarcation.h"

#include <algorithm>

#include "common/macros.h"

namespace samya::baselines {

DemarcationSite::DemarcationSite(rt::NodeId id, rt::Region region,
                                 DemarcationOptions opts)
    : Node(id, region), opts_(std::move(opts)) {
  SAMYA_CHECK(!opts_.sites.empty());
  // Start the round-robin at our successor so borrow load spreads.
  for (size_t i = 0; i < opts_.sites.size(); ++i) {
    if (opts_.sites[i] == this->id()) {
      next_peer_ = (i + 1) % opts_.sites.size();
      break;
    }
  }
}

void DemarcationSite::HandleMessage(rt::NodeId from, uint32_t type,
                                    BufferReader& r) {
  switch (type) {
    case kMsgTokenRequest: {
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
      }
      ServeOrBorrow(from, *req);
      return;
    }
    case kMsgBorrowRequest:
      OnBorrowRequest(from, r);
      return;
    case kMsgBorrowReply:
      OnBorrowReply(r);
      return;
    default:
      SAMYA_CHECK_MSG(false, "demarcation: unknown message type %u", type);
  }
}

void DemarcationSite::ServeOrBorrow(rt::NodeId client,
                                    const TokenRequest& req) {
  if (borrowing_ && req.op == TokenOp::kAcquire) {
    // A borrow round is in flight; preserve order behind it.
    queue_.push_back(QueuedRequest{client, req});
    return;
  }
  if (ServeLocally(client, req)) return;
  // Exhausted escrow: borrow from peers, queueing the request meanwhile.
  queue_.push_back(QueuedRequest{client, req});
  borrowing_ = true;
  needed_ = req.amount + opts_.borrow_slack;
  peers_asked_ = 0;
  AskNextPeer();
}

bool DemarcationSite::ServeLocally(rt::NodeId client,
                                   const TokenRequest& req) {
  switch (req.op) {
    case TokenOp::kAcquire:
      if (tokens_left_ >= req.amount) {
        tokens_left_ -= req.amount;
        dedup_.Remember(req.request_id, tokens_left_);
        Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
        return true;
      }
      return false;
    case TokenOp::kRelease:
      tokens_left_ += req.amount;
      dedup_.Remember(req.request_id, tokens_left_);
      Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
      return true;
    case TokenOp::kRead:
      // Demarcation has no global snapshot machinery; reads report the local
      // escrow view.
      Respond(client, req.request_id, TokenStatus::kCommitted, tokens_left_);
      return true;
  }
  return false;
}

void DemarcationSite::Respond(rt::NodeId client, uint64_t request_id,
                              TokenStatus status, int64_t value) {
  TokenResponse resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.value = value;
  BufferWriter w;
  resp.EncodeTo(w);
  Send(client, kMsgTokenResponse, w);
}

void DemarcationSite::AskNextPeer() {
  if (peers_asked_ >= opts_.sites.size() - 1 || needed_ <= 0) {
    // Asked everyone (or satisfied): end the borrow round.
    borrowing_ = false;
    DrainQueue();
    return;
  }
  rt::NodeId peer = opts_.sites[next_peer_ % opts_.sites.size()];
  next_peer_ = (next_peer_ + 1) % opts_.sites.size();
  if (peer == id()) {
    peer = opts_.sites[next_peer_ % opts_.sites.size()];
    next_peer_ = (next_peer_ + 1) % opts_.sites.size();
  }
  ++peers_asked_;
  ++borrows_attempted_;
  outstanding_borrow_ = next_borrow_id_++;
  BufferWriter w;
  w.PutU64(outstanding_borrow_);
  w.PutVarintSigned(needed_);
  Send(peer, kMsgBorrowRequest, w);
  // Deliberately no timeout: the underlying demarcation/escrow protocols
  // assume a reliable network (§5); a lost reply blocks this site's borrows.
}

void DemarcationSite::OnBorrowRequest(rt::NodeId from, BufferReader& r) {
  auto borrow_id_r = r.GetU64();
  auto requested_r = r.GetVarintSigned();
  if (!borrow_id_r.ok() || !requested_r.ok()) return;
  const uint64_t borrow_id = *borrow_id_r;
  const int64_t requested = *requested_r;
  // Lend up to lend_fraction of the local pool: the lender debits first, so
  // the tokens are never double-spendable.
  const int64_t willing = static_cast<int64_t>(
      static_cast<double>(tokens_left_) * opts_.lend_fraction);
  const int64_t granted = std::clamp<int64_t>(requested, 0, willing);
  tokens_left_ -= granted;
  BufferWriter w;
  w.PutU64(borrow_id);
  w.PutVarintSigned(granted);
  Send(from, kMsgBorrowReply, w);
}

void DemarcationSite::OnBorrowReply(BufferReader& r) {
  auto borrow_id_r = r.GetU64();
  auto granted_r = r.GetVarintSigned();
  if (!borrow_id_r.ok() || !granted_r.ok()) return;
  const uint64_t borrow_id = *borrow_id_r;
  const int64_t granted = *granted_r;
  if (borrow_id != outstanding_borrow_) return;  // stale
  outstanding_borrow_ = 0;
  tokens_left_ += granted;
  needed_ -= granted;
  // Serve whatever is now servable before deciding to ask another peer.
  if (needed_ > 0) {
    AskNextPeer();
  } else {
    borrowing_ = false;
    DrainQueue();
  }
}

void DemarcationSite::DrainQueue() {
  while (!borrowing_ && !queue_.empty()) {
    QueuedRequest q = std::move(queue_.front());
    queue_.pop_front();
    if (ServeLocally(q.client, q.request)) continue;
    if (peers_asked_ < opts_.sites.size() - 1) {
      // Mid-drain exhaustion: start another borrow round for this request.
      queue_.push_front(std::move(q));
      borrowing_ = true;
      needed_ = queue_.front().request.amount + opts_.borrow_slack;
      AskNextPeer();
      return;
    }
    Respond(q.client, q.request.request_id, TokenStatus::kRejected,
            tokens_left_);
  }
  if (!borrowing_) peers_asked_ = 0;
}

}  // namespace samya::baselines
