#ifndef SAMYA_BASELINES_BOUNDED_COUNTER_H_
#define SAMYA_BASELINES_BOUNDED_COUNTER_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/token_api.h"
#include "obs/flight_recorder.h"
#include "rt/node.h"
#include "storage/stable_storage.h"

namespace samya::baselines {

/// Message types 270-279 (see common/token_api.h registry).
inline constexpr uint32_t kMsgBcGossip = 270;
inline constexpr uint32_t kMsgBcTransferRequest = 271;
inline constexpr uint32_t kMsgBcTransferReply = 272;

struct BoundedCounterOptions {
  std::vector<rt::NodeId> sites;  ///< all sites, including self
  /// Initial escrow share per site, parallel to `sites` (sums to M_e). Every
  /// site knows the whole vector so all replicas seed identical version-0
  /// rows for their peers and the value read starts exact.
  std::vector<int64_t> initial_shares;
  int64_t global_tokens = 5000;  ///< M_e; read results are clamped to [0, M]
  /// Row-set dissemination cadence: each round the full row set goes to
  /// `gossip_fanout` random peers (epidemic push, as in [Balegas et al.]).
  Duration gossip_interval = Seconds(1);
  int gossip_fanout = 2;
  /// On exhaustion, ask the peer with the most (locally visible) rights for
  /// the shortfall plus this slack.
  int64_t transfer_slack = 25;
  Duration transfer_timeout = Millis(800);
  /// Total gossip silence from every peer for this many intervals marks the
  /// site disconnected: it stops opening transfer rounds (they would only
  /// time out) and serves strictly from rights it already owns. Unlike
  /// Samya, no op-log or reconcile handshake is needed — every committed op
  /// durably persists the site's own row, and merge *is* reconciliation.
  int disconnect_miss_threshold = 4;
};

struct BoundedCounterStats {
  uint64_t committed_acquires = 0;
  uint64_t committed_releases = 0;
  uint64_t committed_reads = 0;
  uint64_t rejected = 0;
  uint64_t transfers_requested = 0;
  uint64_t transfers_granted = 0;  ///< grants made *by* this site (as donor)
  uint64_t gossip_rounds = 0;
  uint64_t disconnected_windows = 0;  ///< times the silence detector tripped
  uint64_t reconciles = 0;            ///< disconnected windows that healed
};

/// \brief Bounded Counter CRDT baseline (Balegas et al., "Extending
/// Eventually Consistent Cloud Databases for Enforcing Numeric Invariants",
/// SRDS '15): the escrow idea recast as a state-based CRDT.
///
/// Each site owns one *row* { version, inc, dec, out[n] }: `inc`/`dec` are
/// the operations it committed locally, `out[j]` the rights it transferred
/// to site j. Rows travel by gossip and merge by version-replace (only the
/// owner ever bumps its row, so the highest version is the freshest truth).
/// Site i may consume
///
///   rights(i) = inc_i - dec_i - sum_j out_i[j] + sum_j out_j[i]
///
/// and because incoming credits (`out_j[i]`) are only ever *under*-counted by
/// a stale view while the site's own debits are exact, local rights are a
/// safe lower bound: acquires against them can never drive the global value
/// negative, with no coordination round at all — the contrast with Samya's
/// Avantan (consensus per redistribution) and with SiteEscrow (pairwise RPC
/// transfers against a scalar gossip view).
///
/// Transfers are peer-to-peer: a dry site asks the peer with the most
/// visible rights; the donor debits `out[donor][asker]` *and persists* before
/// the grant travels, so a crash can lose a grant (rights vanish until the
/// next gossip re-delivers the row) but never mint one.
class BoundedCounterSite : public rt::Node {
 public:
  BoundedCounterSite(rt::NodeId id, rt::Region region,
                     BoundedCounterOptions opts);

  void Start() override;
  void HandleMessage(rt::NodeId from, uint32_t type,
                     BufferReader& r) override;
  void HandleTimer(uint64_t token) override;
  void HandleCrash() override;
  void HandleRecover() override;

  /// Durable row storage; pass the cluster's per-node storage before Start.
  void set_storage(storage::StableStorage* s) { storage_ = s; }

  /// Checker hook mirroring core::Site::set_history_tap.
  using HistoryTap = std::function<void(uint64_t request_id, TokenStatus)>;
  void set_history_tap(HistoryTap tap) { history_tap_ = std::move(tap); }

  const BoundedCounterStats& stats() const { return stats_; }
  bool disconnected() const { return disconnected_; }

  /// Rights this site may consume right now (its own view). Zero while
  /// crashed (rows_ cleared).
  int64_t local_rights() const {
    return rows_.empty() ? 0 : RightsOf(my_slot_);
  }
  /// This site's authoritative share of the counter: own-row inc - dec.
  /// Summed across sites (plus the committed-acquire ledger) this is exact
  /// at *every* instant — transfers only move `out` entries, which cancel.
  int64_t authoritative_balance() const {
    return rows_.empty() ? 0
                         : rows_[my_slot_].inc - rows_[my_slot_].dec;
  }
  /// The counter value as visible locally (unclamped).
  int64_t visible_value() const;

 private:
  struct Row {
    uint64_t ver = 0;  ///< bumped only by the owning site
    int64_t inc = 0;
    int64_t dec = 0;
    std::vector<int64_t> out;  ///< rights transferred to slot j
  };

  struct QueuedRequest {
    rt::NodeId client = rt::kInvalidNode;
    TokenRequest request;
  };

  size_t SlotOf(rt::NodeId site) const;
  int64_t RightsOf(size_t slot) const;
  void SeedRows();
  void PersistRows();
  bool LoadRows();
  void EncodeRows(BufferWriter& w) const;
  bool MergeRows(BufferReader& r);  ///< true if any row was replaced

  void ServeOrTransfer(rt::NodeId client, const TokenRequest& req);
  bool ServeLocally(rt::NodeId client, const TokenRequest& req);
  void Respond(rt::NodeId client, uint64_t request_id, TokenStatus status,
               int64_t value);
  void StartTransferRound(int64_t needed);
  void AskRichestPeer();
  void DrainQueue();
  void SendGossip();
  void NoteHeardFrom();

  void OnGossip(rt::NodeId from, BufferReader& r);
  void OnTransferRequest(rt::NodeId from, BufferReader& r);
  void OnTransferReply(BufferReader& r);

  BoundedCounterOptions opts_;
  storage::StableStorage* storage_ = nullptr;
  HistoryTap history_tap_;
  /// Flight recorder (DESIGN.md §8): gossip merges and rights transfers.
  obs::FlightRecorder* flight_ = nullptr;

  size_t my_slot_ = 0;
  std::vector<Row> rows_;  ///< one per site, indexed by slot

  // Silence-based partition detector (gossip doubles as the heartbeat).
  bool disconnected_ = false;
  SimTime last_heard_ = 0;

  // Transfer round state (one at a time), as in SiteEscrowSite.
  bool transferring_ = false;
  int64_t needed_ = 0;
  std::vector<size_t> candidates_;  ///< slots, richest-first, not yet asked
  uint64_t next_transfer_id_ = 1;
  uint64_t outstanding_transfer_ = 0;
  uint64_t transfer_timer_ = 0;
  std::deque<QueuedRequest> queue_;

  BoundedCounterStats stats_;

  // At-most-once guard (see core::Site), bounded by rotation.
  static constexpr size_t kDedupGenerationSize = 1 << 17;
  std::unordered_map<uint64_t, int64_t> committed_writes_;
  std::unordered_map<uint64_t, int64_t> committed_writes_prev_;
  void RememberWrite(uint64_t request_id, int64_t value);
  const int64_t* LookupWrite(uint64_t request_id) const;
};

}  // namespace samya::baselines

#endif  // SAMYA_BASELINES_BOUNDED_COUNTER_H_
