#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace samya::obs {

namespace {

/// Canonical (at, site, seq) order. `seq` is per-site monotonic, so the
/// triple is a total order over one run's events.
bool CanonicalLess(const FlightEvent& x, const FlightEvent& y) {
  if (x.at != y.at) return x.at < y.at;
  if (x.site != y.site) return x.site < y.site;
  return x.seq < y.seq;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

uint32_t FlightRecorder::NextSeq(int32_t site) {
  const auto idx = static_cast<size_t>(site);
  if (idx >= seq_.size()) seq_.resize(idx + 1, 0);
  return seq_[idx]++;
}

void FlightRecorder::Push(const FlightEvent& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    FlightEvent& slot = ring_[cursor_];
    if (slot.at > evicted_until_) evicted_until_ = slot.at;
    slot = ev;
  }
  ++total_;
  if (++cursor_ == capacity_) cursor_ = 0;
}

uint32_t FlightRecorder::Record(SimTime at, int32_t site, FlightKind kind,
                                uint16_t code, int64_t a, int64_t b,
                                int64_t c) {
  SAMYA_CHECK_GE(site, 0);
  FlightEvent ev;
  ev.at = at;
  ev.site = site;
  ev.seq = NextSeq(site);
  ev.kind = kind;
  ev.code = code;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  Push(ev);
  return ev.seq;
}

void FlightRecorder::Merge(const FlightRecorder& other) {
  // Every site records into exactly one recorder, so per-site seq ranges are
  // disjoint across the recorders being merged; preserving other's stamps
  // keeps the canonical order well defined. Advance our counters past the
  // merged stamps so post-merge recording stays per-site monotonic.
  for (const FlightEvent& ev : other.ring_) {
    Push(ev);
    const auto idx = static_cast<size_t>(ev.site);
    if (idx >= seq_.size()) seq_.resize(idx + 1, 0);
    seq_[idx] = std::max(seq_[idx], ev.seq + 1);
  }
  total_ += other.dropped();  // evictions travel too: total stays the sum
  cursor_ = static_cast<size_t>(total_ % capacity_);
  evicted_until_ = std::max(evicted_until_, other.evicted_until_);
}

std::vector<FlightEvent> FlightRecorder::Canonical() const {
  std::vector<FlightEvent> out = ring_;
  std::sort(out.begin(), out.end(), CanonicalLess);
  return out;
}

SimTime FlightRecorder::complete_from() const {
  // `evicted_until_` tracks the newest event ever overwritten
  // (across merges); retained history is complete strictly after it.
  return dropped() == 0 ? 0 : evicted_until_ + 1;
}

uint64_t FlightRecorder::Digest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const FlightEvent& ev : Canonical()) {
    mix(static_cast<uint64_t>(ev.at));
    mix((static_cast<uint64_t>(static_cast<uint32_t>(ev.site)) << 32) |
        ev.seq);
    mix((static_cast<uint64_t>(static_cast<uint16_t>(ev.kind)) << 16) |
        ev.code);
    mix(static_cast<uint64_t>(ev.a));
    mix(static_cast<uint64_t>(ev.b));
    mix(static_cast<uint64_t>(ev.c));
  }
  return h;
}

namespace {

JsonValue EventToJson(const FlightEvent& ev) {
  JsonValue e = JsonValue::MakeObject();
  e.Set("at", ev.at);
  e.Set("site", static_cast<int64_t>(ev.site));
  e.Set("seq", static_cast<uint64_t>(ev.seq));
  e.Set("kind", FlightRecorder::KindName(ev.kind));
  e.Set("code", static_cast<uint64_t>(ev.code));
  e.Set("a", ev.a);
  e.Set("b", ev.b);
  e.Set("c", ev.c);
  return e;
}

}  // namespace

JsonValue FlightRecorder::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("format", "samya-flight-v1");
  root.Set("total", total_);
  root.Set("dropped", dropped());
  root.Set("complete_from", complete_from());
  root.Set("end", end_);
  JsonValue nodes = JsonValue::MakeArray();
  for (const auto& [id, name] : nodes_) {
    JsonValue n = JsonValue::MakeObject();
    n.Set("id", static_cast<int64_t>(id));
    n.Set("name", name);
    nodes.Append(std::move(n));
  }
  root.Set("nodes", std::move(nodes));
  JsonValue events = JsonValue::MakeArray();
  for (const FlightEvent& ev : Canonical()) events.Append(EventToJson(ev));
  root.Set("events", std::move(events));
  return root;
}

const char* FlightRecorder::KindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kPhase: return "phase";
    case FlightKind::kPoolDelta: return "pool_delta";
    case FlightKind::kMsgSend: return "msg_send";
    case FlightKind::kMsgDeliver: return "msg_deliver";
    case FlightKind::kEpochEnter: return "epoch_enter";
    case FlightKind::kEpochExit: return "epoch_exit";
    case FlightKind::kOpLogAppend: return "oplog_append";
    case FlightKind::kOpLogReplay: return "oplog_replay";
    case FlightKind::kReconcileOffer: return "reconcile_offer";
    case FlightKind::kReconcileAck: return "reconcile_ack";
    case FlightKind::kGossipMerge: return "gossip_merge";
    case FlightKind::kRightsTransfer: return "rights_transfer";
    case FlightKind::kViolation: return "violation";
    case FlightKind::kRequest: return "request";
  }
  return "?";
}

bool FlightRecorder::KindFromName(const std::string& name, FlightKind* out) {
  static constexpr FlightKind kAll[] = {
      FlightKind::kPhase,          FlightKind::kPoolDelta,
      FlightKind::kMsgSend,        FlightKind::kMsgDeliver,
      FlightKind::kEpochEnter,     FlightKind::kEpochExit,
      FlightKind::kOpLogAppend,    FlightKind::kOpLogReplay,
      FlightKind::kReconcileOffer, FlightKind::kReconcileAck,
      FlightKind::kGossipMerge,    FlightKind::kRightsTransfer,
      FlightKind::kViolation,      FlightKind::kRequest};
  for (FlightKind k : kAll) {
    if (name == KindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* FlightRecorder::CodeName(FlightKind kind, uint16_t code) {
  switch (kind) {
    case FlightKind::kPhase:
      switch (code) {
        case kPhaseElectionStart: return "election_start";
        case kPhaseAcceptStart: return "accept_start";
        case kPhaseDecided: return "decided";
        case kPhaseApply: return "apply";
        case kPhaseFinish: return "finish";
        case kPhaseAbort: return "abort";
        case kPhaseRecoveryStart: return "recovery_start";
        case kPhaseRecoveryConclude: return "recovery_conclude";
        case kPhaseEngage: return "engage";
        default: return "";
      }
    case FlightKind::kPoolDelta:
      switch (code) {
        case kPoolServe: return "serve";
        case kPoolReallocation: return "reallocation";
        case kPoolReplay: return "replay";
        default: return "";
      }
    case FlightKind::kMsgSend:
      switch (code) {
        case kSendOk: return "sent";
        case kSendDroppedAtSend: return "dropped_at_send";
        case kSendDuplicated: return "duplicated";
        default: return "";
      }
    case FlightKind::kMsgDeliver:
      switch (code) {
        case kDeliverOk: return "delivered";
        case kDeliverDroppedCrashed: return "dropped_crashed";
        case kDeliverDroppedPartition: return "dropped_partition";
        case kDeliverDroppedLink: return "dropped_link";
        case kDeliverDroppedLoss: return "dropped_loss";
        default: return "";
      }
    case FlightKind::kRightsTransfer:
      switch (code) {
        case kTransferRequested: return "requested";
        case kTransferGranted: return "granted";
        case kTransferReceived: return "received";
        default: return "";
      }
    case FlightKind::kRequest:
      switch (code) {
        case kRequestQueued: return "queued";
        case kRequestRead: return "read";
        case kRequestAnswered: return "answered";
        default: return "";
      }
    case FlightKind::kViolation:
      switch (code) {
        case kViolationConservation: return "conservation";
        case kViolationConstraint: return "constraint";
        case kViolationNonNegative: return "non_negative";
        case kViolationAgreement: return "agreement";
        case kViolationLiveness: return "liveness";
        case kViolationReconcile: return "reconcile";
        default: return "other";
      }
    default:
      return "";
  }
}

const char* MessageTypeName(uint32_t type) {
  switch (type) {
    case 10: return "token_request";
    case 11: return "token_response";
    case 100: return "mp_prepare";
    case 101: return "mp_promise";
    case 102: return "mp_accept";
    case 103: return "mp_accepted";
    case 104: return "mp_commit";
    case 105: return "mp_heartbeat";
    case 120: return "raft_request_vote";
    case 121: return "raft_vote_response";
    case 122: return "raft_append_entries";
    case 123: return "raft_append_response";
    case 200: return "election_get_value";
    case 201: return "election_ok_value";
    case 202: return "accept_value";
    case 203: return "accept_ok";
    case 204: return "decision";
    case 205: return "discard";
    case 206: return "status_query";
    case 207: return "status_reply";
    case 230: return "read_query";
    case 231: return "read_reply";
    case 250: return "borrow_request";
    case 251: return "borrow_reply";
    case 260: return "gossip";
    case 261: return "escrow_transfer_request";
    case 262: return "escrow_transfer_reply";
    default: return "msg";
  }
}

}  // namespace samya::obs
