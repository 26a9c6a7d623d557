#ifndef SAMYA_OBS_FLIGHT_RECORDER_H_
#define SAMYA_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace samya::obs {

/// \file
/// Flight recorder (DESIGN.md §8): the one event stream of a run.
///
/// A ring of compact protocol events, bounded for always-on sweeps and
/// unbounded for full-run captures. Spans (rounds, phases, request waits),
/// message flights and every report view are derived from it after the run
/// (harness/postmortem.h). Like every obs component it is a pure observer —
/// instrumentation sites reduce to one null-pointer branch when disabled,
/// and an armed recorder changes no RNG draw, payload byte, or event
/// ordering (pinned by FlightRecorderDeterminismTest).
///
/// Events are sim-time-stamped protocol state transitions. Each is stamped
/// (at, site, seq) where `seq` is a per-site monotonic counter; sorting by
/// that triple gives a canonical total order. That order is what `Digest()`
/// covers and what `samya_postmortem diff` compares.
///
/// The real backend keeps one recorder per node; `Merge` folds them into
/// one after the run.
enum class FlightKind : uint16_t {
  kPhase = 1,        ///< Avantan phase transition; a=instance, b=aux
  kPoolDelta,        ///< token-pool change; a=delta, b=pool after
  kMsgSend,          ///< send fate; a=type, b=to, c=bytes
  /// Delivery fate (attributed to the receiver); a=type, b=from, c=the send event's
  /// seq on site `from` (-1 when the backend cannot pair it).
  kMsgDeliver,
  kEpochEnter,       ///< disconnected epoch opened; a=epoch
  kEpochExit,        ///< epoch reconciled; a=epoch, b=served, c=appends
  kOpLogAppend,      ///< durable op-log append; a=seq, b=pool after
  kOpLogReplay,      ///< recovery replay; a=ops replayed, b=epoch
  kReconcileOffer,   ///< reconcile offer broadcast; a=epoch
  kReconcileAck,     ///< reconcile ack applied; a=epoch, b=from
  kGossipMerge,      ///< BoundedCounter gossip merge; a=from, b=changed
  kRightsTransfer,   ///< BoundedCounter rights move; a=amount, b=peer
  kViolation,        ///< auditor violation marker; a=violation index
  /// A client request that was not answered in its arrival handler;
  /// a=request id. Begin codes b=amount; kRequestAnswered b=status.
  kRequest,
};

/// Per-kind event codes (the `code` field).
enum : uint16_t {
  // kPhase
  kPhaseElectionStart = 1,
  kPhaseAcceptStart = 2,
  kPhaseDecided = 3,
  kPhaseApply = 4,
  kPhaseFinish = 5,
  kPhaseAbort = 6,
  kPhaseRecoveryStart = 7,
  kPhaseRecoveryConclude = 8,
  kPhaseEngage = 9,
  // kPoolDelta
  kPoolServe = 1,
  kPoolReallocation = 2,
  kPoolReplay = 3,
  // kMsgSend
  kSendOk = 1,
  kSendDroppedAtSend = 2,
  kSendDuplicated = 3,
  // kMsgDeliver
  kDeliverOk = 1,
  kDeliverDroppedCrashed = 2,
  kDeliverDroppedPartition = 3,
  kDeliverDroppedLink = 4,
  kDeliverDroppedLoss = 5,
  // kRightsTransfer
  kTransferRequested = 1,
  kTransferGranted = 2,
  kTransferReceived = 3,
  // kRequest
  kRequestQueued = 1,     ///< write queued behind a freeze or its own round
  kRequestRead = 2,       ///< global read fanned out
  kRequestAnswered = 3,
  // kViolation: code identifies the check
  kViolationOther = 0,
  kViolationConservation = 1,
  kViolationConstraint = 2,
  kViolationNonNegative = 3,
  kViolationAgreement = 4,
  kViolationLiveness = 5,
  kViolationReconcile = 6,
};

/// One recorded event. 40 bytes; the ring stores these by value.
struct FlightEvent {
  SimTime at = 0;
  int32_t site = -1;   ///< node id
  uint32_t seq = 0;    ///< per-site monotonic, stamped by Record
  FlightKind kind{};
  uint16_t code = 0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;

  bool operator==(const FlightEvent& o) const {
    return at == o.at && site == o.site && seq == o.seq && kind == o.kind &&
           code == o.code && a == o.a && b == o.b && c == o.c;
  }
};

class FlightRecorder {
 public:
  /// Ring size for always-armed sweeps (chaos, explore, real harness).
  static constexpr size_t kDefaultCapacity = 1u << 16;
  /// Full-run captures keep every event.
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// `site` must be >= 0; returns the `seq` it stamps.
  uint32_t Record(SimTime at, int32_t site, FlightKind kind, uint16_t code,
                  int64_t a = 0, int64_t b = 0, int64_t c = 0);

  /// Events ever recorded (>= retained when the ring wrapped).
  uint64_t total() const { return total_; }
  size_t retained() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return total_ - ring_.size(); }

  /// Folds another recorder's retained events into this one, preserving their original stamps. Per-site seq counters advance
  /// past the merged events so later recording stays monotonic per site.
  void Merge(const FlightRecorder& other);

  /// Retained events in canonical (at, site, seq) order.
  std::vector<FlightEvent> Canonical() const;

  /// Earliest time from which the retained history is complete:
  /// 0 when nothing was evicted, otherwise just after the newest evicted
  /// event. Diffs trim both sides to max(complete_from) before comparing.
  SimTime complete_from() const;

  /// Display name of a node ("site 0 (us-west)"), carried as `nodes`.
  void NameNode(int32_t id, std::string name) { nodes_[id] = std::move(name); }

  /// Run end time, carried as `end`: spans still open then close at it.
  void set_end(SimTime end) { end_ = end; }

  /// FNV-1a over the canonical events. Bit-identical across reruns of the
  /// same seed, and across obs-on/off (no-wrap runs).
  uint64_t Digest() const;

  /// {format:"samya-flight-v1", total, dropped, complete_from, end,
  ///  nodes:[{id,name}], events:[{at,site,seq,kind,code,a,b,c}]}.
  /// Canonical order; `JsonDump(v, 2)` of this is the bundle's flight
  /// section and round-trips byte-identically through FromJson.
  JsonValue ToJson() const;

  static const char* KindName(FlightKind kind);
  /// Human name of `code` under `kind`; "" when the kind has no code table.
  static const char* CodeName(FlightKind kind, uint16_t code);
  /// Inverse of KindName; returns false for unknown names.
  static bool KindFromName(const std::string& name, FlightKind* out);

 private:
  void Push(const FlightEvent& ev);
  uint32_t NextSeq(int32_t site);

  size_t capacity_;
  std::vector<FlightEvent> ring_;
  uint64_t total_ = 0;
  size_t cursor_ = 0;  ///< total_ % capacity_: the next overwritten slot
  SimTime evicted_until_ = 0;  ///< newest event ever overwritten
  std::vector<uint32_t> seq_;  ///< per-site counters, indexed by site id
  std::map<int32_t, std::string> nodes_;
  SimTime end_ = 0;
};

/// Human name of a wire message type (registry in common/token_api.h).
/// Returns a static string; unknown types map to "msg".
const char* MessageTypeName(uint32_t type);

}  // namespace samya::obs

#endif  // SAMYA_OBS_FLIGHT_RECORDER_H_
