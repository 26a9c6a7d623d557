#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"

namespace samya::sim {

const char* TapEventName(TapEvent ev) {
  switch (ev) {
    case TapEvent::kSent:
      return "sent";
    case TapEvent::kDroppedAtSend:
      return "dropped_at_send";
    case TapEvent::kDelivered:
      return "delivered";
    case TapEvent::kDroppedAtDelivery:
      return "dropped_at_delivery";
  }
  return "unknown";
}

Network::Network(SimEnvironment* env, LatencyModel model)
    : env_(env), model_(model), rng_(env->rng().Fork(0x6e657477)) {}

void Network::Register(Node* node) {
  SAMYA_CHECK_EQ(node->id(), static_cast<NodeId>(nodes_.size()));
  Bind(*node, this, env_->now_ptr());
  SeedRng(*node, rng_.Fork(0x6e6f6465 + static_cast<uint64_t>(node->id())));
  // The per-sender network stream: every loss/duplication/latency draw for
  // this node's sends comes from here, in the node's own send order.
  send_rngs_.push_back(rng_.Fork(0x736e6472 + static_cast<uint64_t>(node->id())));
  nodes_.push_back(node);
  partition_group_.push_back(0);
}

Node* Network::node(NodeId id) const {
  SAMYA_CHECK_GE(id, 0);
  SAMYA_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  return nodes_[static_cast<size_t>(id)];
}

bool Network::IsAlive(NodeId id) const { return node(id)->alive(); }

bool Network::CanCommunicate(NodeId a, NodeId b) const {
  if (!partitioned_) return true;
  return partition_group_[static_cast<size_t>(a)] ==
         partition_group_[static_cast<size_t>(b)];
}

bool Network::LinkCut(NodeId from, NodeId to) const {
  return cut_links_.contains(LinkKey(from, to));
}

void Network::CutLink(NodeId from, NodeId to) {
  cut_links_.insert(LinkKey(from, to));
  SAMYA_LOG_INFO("t=%s link %d->%d CUT", FormatDuration(env_->Now()).c_str(),
                 from, to);
}

void Network::RestoreLink(NodeId from, NodeId to) {
  cut_links_.erase(LinkKey(from, to));
  SAMYA_LOG_INFO("t=%s link %d->%d restored",
                 FormatDuration(env_->Now()).c_str(), from, to);
}

void Network::SetLinkDelayFactor(NodeId from, NodeId to, double factor) {
  SAMYA_CHECK_GT(factor, 0.0);
  if (factor == 1.0) {
    link_delay_factor_.erase(LinkKey(from, to));
  } else {
    link_delay_factor_[LinkKey(from, to)] = factor;
  }
}

void Network::ClearLinkFaults() {
  cut_links_.clear();
  link_delay_factor_.clear();
}

Duration Network::ScaledLatency(Node* sender, Node* receiver, Rng& rng) {
  const Duration base = model_.Sample(sender->region(), receiver->region(), rng);
  double factor = delay_factor_;
  if (!link_delay_factor_.empty()) {
    auto it = link_delay_factor_.find(LinkKey(sender->id(), receiver->id()));
    if (it != link_delay_factor_.end()) factor *= it->second;
  }
  if (factor == 1.0) return base;
  const double scaled = static_cast<double>(base) * factor;
  return scaled < 1.0 ? Duration{1} : static_cast<Duration>(scaled);
}

void Network::InvokeHandler(Node* recv, NodeId from, uint32_t type,
                            BufferReader& reader,
                            obs::EventLoopProfiler* profiler) {
  if (profiler == nullptr) {
    recv->HandleMessage(from, type, reader);
  } else {
    const int64_t t0 = obs::EventLoopProfiler::NowNs();
    recv->HandleMessage(from, type, reader);
    profiler->AccountMessage(type, obs::EventLoopProfiler::NowNs() - t0);
  }
}

void Network::Deliver(NodeId from, NodeId to, uint32_t type,
                      std::vector<uint8_t> payload, uint32_t seq) {
  Node* recv = node(to);
  // Entering node code: subsequent Schedule/Send key allocations belong to
  // the receiver's causal stream (see StreamKeyTable).
  env_->SetCurrentStream(static_cast<uint32_t>(to) + 1);
  bool dropped = true;
  if (!recv->alive()) {
    ++stats_.messages_dropped_crashed;
  } else if (partitioned_ && !CanCommunicate(from, to)) {
    // A partition that formed while the message was in flight also cuts it.
    ++stats_.messages_dropped_partition;
  } else if (!cut_links_.empty() && LinkCut(from, to)) {
    // Same rule for a link cut that formed mid-flight.
    ++stats_.messages_dropped_link;
  } else {
    dropped = false;
  }

  if (dropped) {
    if (flight_ != nullptr) {
      const uint16_t why = !recv->alive() ? obs::kDeliverDroppedCrashed
                           : (partitioned_ && !CanCommunicate(from, to))
                               ? obs::kDeliverDroppedPartition
                               : obs::kDeliverDroppedLink;
      flight_->Record(env_->Now(), to, obs::FlightKind::kMsgDeliver, why,
                      type, from, seq);
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(),
           TapEvent::kDroppedAtDelivery);
    }
  } else {
    ++stats_.messages_delivered;
    if (flight_ != nullptr) {
      flight_->Record(env_->Now(), to, obs::FlightKind::kMsgDeliver,
                      obs::kDeliverOk, type, from, seq);
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(), TapEvent::kDelivered);
    }
    BufferReader reader(payload);
    InvokeHandler(recv, from, type, reader, profiler_);
  }
  pool_.Release(std::move(payload));
}

void Network::DispatchDelivery(Node* sender, Node* receiver, uint32_t type,
                               std::vector<uint8_t> payload, uint32_t seq,
                               Duration latency) {
  const NodeId from = sender->id();
  const NodeId to = receiver->id();
  // The delivery closure (48 bytes: this + ids + type + the send's flight
  // seq + the payload vector) fits SimCallback's inline buffer, and the
  // payload returns to the pool whether the message is delivered or dropped
  // in flight. Deliveries go through ScheduleMessage so an attached schedule
  // oracle may reorder them; with no oracle it is a plain Schedule.
  env_->ScheduleMessage(latency, from, to, type,
                        [this, from, to, type, seq,
                         payload = std::move(payload)]() mutable {
                          Deliver(from, to, type, std::move(payload), seq);
                        });
}

void Network::Send(NodeId from, NodeId to, uint32_t type,
                   std::vector<uint8_t> payload) {
  Node* sender = node(from);
  Node* receiver = node(to);
  if (!sender->alive()) return;  // a crashed node sends nothing
  Rng& send_rng = send_rngs_[static_cast<size_t>(from)];
  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();

  bool dropped_at_send = false;
  if (partitioned_ && !CanCommunicate(from, to)) {
    ++stats_.messages_dropped_partition;
    dropped_at_send = true;
  } else if (!cut_links_.empty() && LinkCut(from, to)) {
    ++stats_.messages_dropped_link;
    dropped_at_send = true;
  } else if (loss_rate_ > 0 && send_rng.Bernoulli(loss_rate_)) {
    ++stats_.messages_dropped_loss;
    dropped_at_send = true;
  }
  if (dropped_at_send) {
    if (flight_ != nullptr) {
      flight_->Record(env_->Now(), from, obs::FlightKind::kMsgSend,
                      obs::kSendDroppedAtSend, type, to,
                      static_cast<int64_t>(payload.size()));
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(),
           TapEvent::kDroppedAtSend);
    }
    pool_.Release(std::move(payload));
    return;
  }
  uint32_t seq = 0;
  if (flight_ != nullptr) {
    seq = flight_->Record(env_->Now(), from, obs::FlightKind::kMsgSend,
                          obs::kSendOk, type, to,
                          static_cast<int64_t>(payload.size()));
  }
  if (tap_) tap_(env_->Now(), from, to, type, payload.size(), TapEvent::kSent);

  if (duplicate_rate_ > 0 && send_rng.Bernoulli(duplicate_rate_)) {
    // Inject a copy with an independently sampled latency; it races the
    // original and may arrive first (duplication implies reordering).
    ++stats_.messages_duplicated;
    // The copy pairs with its own send event (it fires its own delivery).
    uint32_t dup_seq = 0;
    if (flight_ != nullptr) {
      dup_seq = flight_->Record(env_->Now(), from, obs::FlightKind::kMsgSend,
                                obs::kSendDuplicated, type, to,
                                static_cast<int64_t>(payload.size()));
    }
    std::vector<uint8_t> copy = pool_.Acquire();
    copy.assign(payload.begin(), payload.end());
    const Duration dup_latency = ScaledLatency(sender, receiver, send_rng);
    DispatchDelivery(sender, receiver, type, std::move(copy), dup_seq,
                     dup_latency);
  }

  const Duration latency = ScaledLatency(sender, receiver, send_rng);
  DispatchDelivery(sender, receiver, type, std::move(payload), seq, latency);
}

void Network::Crash(NodeId id) {
  Node* n = node(id);
  if (!n->alive()) return;
  SAMYA_LOG_INFO("t=%s node %d (%s) CRASHED", FormatDuration(env_->Now()).c_str(),
                 id, RegionName(n->region()));
  MarkCrashed(*n);
  // Crash handling is node code: anything it schedules keys on the node's
  // causal stream.
  env_->SetCurrentStream(static_cast<uint32_t>(id) + 1);
  n->HandleCrash();
}

void Network::Recover(NodeId id) {
  Node* n = node(id);
  if (n->alive()) return;
  SAMYA_LOG_INFO("t=%s node %d (%s) RECOVERED",
                 FormatDuration(env_->Now()).c_str(), id,
                 RegionName(n->region()));
  MarkRecovered(*n);
  env_->SetCurrentStream(static_cast<uint32_t>(id) + 1);
  n->HandleRecover();
}

void Network::SetPartition(const std::vector<std::vector<NodeId>>& groups) {
  partitioned_ = true;
  std::fill(partition_group_.begin(), partition_group_.end(),
            static_cast<int>(groups.size()));
  for (size_t g = 0; g < groups.size(); ++g) {
    for (NodeId id : groups[g]) {
      SAMYA_CHECK_GE(id, 0);
      SAMYA_CHECK_LT(static_cast<size_t>(id), partition_group_.size());
      partition_group_[static_cast<size_t>(id)] = static_cast<int>(g);
    }
  }
  SAMYA_LOG_INFO("t=%s network partitioned into %zu group(s)",
                 FormatDuration(env_->Now()).c_str(), groups.size());
}

void Network::ClearPartition() {
  partitioned_ = false;
  SAMYA_LOG_INFO("t=%s network partition healed",
                 FormatDuration(env_->Now()).c_str());
}

uint64_t Network::ArmTimer(Node* n, Duration delay, uint64_t token) {
  const uint64_t epoch = Runtime::epoch(*n);
  // The timer id is the fire event's queue handle, so `DisarmTimer` can
  // remove the event; the closure is built knowing it. The network is
  // reached through the node's runtime pointer (not a captured `this`),
  // keeping the closure small and trivially copyable.
  const uint64_t timer_id = env_->ScheduleAtWithHandle(
      env_->Now() + std::max<Duration>(delay, 0),
      [n, token, epoch](uint64_t id) {
        return [n, id, token, epoch]() {
          // Fire guard shared with the real backend (rt/node.h): dead,
          // stale epoch, or cancelled timers never fire.
          if (!TimerShouldFire(*n, id, epoch)) return;
          Network* net = static_cast<Network*>(runtime_of(*n));
          // Timer fire is an entry into node code: key allocations inside
          // the handler belong to the node's causal stream.
          net->env_->SetCurrentStream(static_cast<uint32_t>(n->id()) + 1);
          obs::EventLoopProfiler* prof = net->profiler_;
          if (prof == nullptr) {
            n->HandleTimer(token);
          } else {
            const int64_t t0 = obs::EventLoopProfiler::NowNs();
            n->HandleTimer(token);
            prof->AccountTimer(obs::EventLoopProfiler::NowNs() - t0);
          }
        };
      });
  RegisterTimerId(*n, timer_id);
  return timer_id;
}

void Network::DisarmTimer(Node* /*n*/, uint64_t timer_id) {
  env_->Cancel(timer_id);
}

void Network::Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
                   size_t n) {
  // Copy the encoded bytes into a pooled buffer rather than allocating a
  // fresh vector per message; the network recycles it after delivery.
  std::vector<uint8_t> buf = pool_.Acquire();
  buf.assign(data, data + n);
  Send(from->id(), to, type, std::move(buf));
}

}  // namespace samya::sim
