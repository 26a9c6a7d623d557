#ifndef SAMYA_BASELINES_DEMARCATION_H_
#define SAMYA_BASELINES_DEMARCATION_H_

#include <deque>
#include <map>

#include "common/dedup_window.h"
#include "common/token_api.h"
#include "rt/node.h"

namespace samya::baselines {

/// Message types 250-259.
inline constexpr uint32_t kMsgBorrowRequest = 250;
inline constexpr uint32_t kMsgBorrowReply = 251;

struct DemarcationOptions {
  std::vector<rt::NodeId> sites;  ///< all sites, including self
  int64_t initial_tokens = 1000;   ///< equal escrow share of M_e
  /// Extra tokens requested beyond the immediate need, to amortize borrows.
  int64_t borrow_slack = 10;
  /// Fraction of its pool a lender is willing to part with per borrow.
  double lend_fraction = 0.35;
};

/// \brief The paper's Demarcation/Escrow baseline (§5): site escrows (Kumar &
/// Stonebraker) + demarcation-style pairwise limit transfers (Barbara &
/// Garcia-Molina, extended to >2 sites following Alonso & El Abbadi).
///
/// Each site serves from its local escrow; on exhaustion it borrows from
/// peers one at a time, in a fixed round-robin order, without any demand
/// prediction or global redistribution. Pairwise transfers conserve tokens:
/// the lender debits before the grant travels. As in the original protocols
/// the network is assumed reliable — a lost BorrowReply permanently strands
/// the granted tokens and blocks the borrower (the paper's stated reason for
/// excluding this baseline from the failure experiments).
class DemarcationSite : public rt::Node {
 public:
  DemarcationSite(rt::NodeId id, rt::Region region, DemarcationOptions opts);

  void Start() override { tokens_left_ = opts_.initial_tokens; }
  void HandleMessage(rt::NodeId from, uint32_t type,
                     BufferReader& r) override;

  int64_t tokens_left() const { return tokens_left_; }
  uint64_t borrows_attempted() const { return borrows_attempted_; }

 private:
  struct QueuedRequest {
    rt::NodeId client = rt::kInvalidNode;
    TokenRequest request;
  };

  void ServeOrBorrow(rt::NodeId client, const TokenRequest& req);
  bool ServeLocally(rt::NodeId client, const TokenRequest& req);
  void Respond(rt::NodeId client, uint64_t request_id, TokenStatus status,
               int64_t value);
  void AskNextPeer();
  void DrainQueue();

  void OnBorrowRequest(rt::NodeId from, BufferReader& r);
  void OnBorrowReply(BufferReader& r);

  DemarcationOptions opts_;
  int64_t tokens_left_ = 0;

  // Borrowing state machine: at most one outstanding borrow.
  bool borrowing_ = false;
  int64_t needed_ = 0;
  size_t peers_asked_ = 0;
  size_t next_peer_ = 0;
  uint64_t next_borrow_id_ = 1;
  uint64_t outstanding_borrow_ = 0;
  std::deque<QueuedRequest> queue_;
  uint64_t borrows_attempted_ = 0;
  /// At-most-once guard against client retries.
  DedupWindow dedup_;
};

}  // namespace samya::baselines

#endif  // SAMYA_BASELINES_DEMARCATION_H_
