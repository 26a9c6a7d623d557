#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"
#include "sim/pdes.h"

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
    : env_(env), model_(model), rng_(env->rng().Fork(0x6e657477)),
      shards_(1) {}

void Network::Register(Node* node, SimEnvironment* env, uint32_t shard) {
  SAMYA_CHECK_EQ(node->id(), static_cast<NodeId>(nodes_.size()));
  Bind(*node, this, env->now_ptr());
  SeedRng(*node, rng_.Fork(0x6e6f6465 + static_cast<uint64_t>(node->id())));
  // The per-sender network stream: every loss/duplication/latency draw for
  // this node's sends comes from here, in the node's own send order.
  send_rngs_.push_back(rng_.Fork(0x736e6472 + static_cast<uint64_t>(node->id())));
  shard_of_.push_back(shard);
  nodes_.push_back(node);
  envs_.push_back(env);
  partition_group_.push_back(0);
}

void Network::ForceSerial() {
  coord_ = nullptr;
  std::fill(shard_of_.begin(), shard_of_.end(), 0u);
  std::fill(envs_.begin(), envs_.end(), env_);
  for (Node* n : nodes_) BindClock(*n, env_->now_ptr());
}

void Network::EnablePdes(PdesCoordinator* coord, size_t num_partitions) {
  SAMYA_CHECK(coord != nullptr);
  SAMYA_CHECK_GE(num_partitions, 1u);
  // Before the first message: shard 0's counters must still be zero, so
  // splitting state now loses nothing.
  SAMYA_CHECK_EQ(shards_[0].stats.messages_sent, 0u);
  coord_ = coord;
  shards_.resize(num_partitions);
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
  SimEnvironment* recv_env = envs_[static_cast<size_t>(to)];
  // Entering node code: subsequent Schedule/Send key allocations belong to
  // the receiver's causal stream (see StreamKeyTable).
  recv_env->SetCurrentStream(static_cast<uint32_t>(to) + 1);
  NetShard& shard = shards_[shard_of_[static_cast<size_t>(to)]];
  LinkCounters* lc =
      shard.metrics != nullptr ? &shard.link_counters[LinkKey(from, to)]
                               : nullptr;
  bool dropped = true;
  if (!recv->alive()) {
    ++shard.stats.messages_dropped_crashed;
  } else if (partitioned_ && !CanCommunicate(from, to)) {
    // A partition that formed while the message was in flight also cuts it.
    ++shard.stats.messages_dropped_partition;
  } else if (!cut_links_.empty() && LinkCut(from, to)) {
    // Same rule for a link cut that formed mid-flight.
    ++shard.stats.messages_dropped_link;
  } else {
    dropped = false;
  }

  if (dropped) {
    if (lc != nullptr) ++lc->dropped_at_delivery;
    if (shard.flight != nullptr) {
      // Attributed to the receiver, in its shard: the receiver's environment
      // is the clock that is correct both serially and on a PDES partition.
      const uint16_t why = !recv->alive() ? obs::kDeliverDroppedCrashed
                           : (partitioned_ && !CanCommunicate(from, to))
                               ? obs::kDeliverDroppedPartition
                               : obs::kDeliverDroppedLink;
      shard.flight->Record(recv_env->Now(), to, obs::FlightKind::kMsgDeliver,
                           why, type, from, seq);
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(),
           TapEvent::kDroppedAtDelivery);
    }
  } else {
    ++shard.stats.messages_delivered;
    if (lc != nullptr) ++lc->delivered;
    if (shard.flight != nullptr) {
      shard.flight->Record(recv_env->Now(), to, obs::FlightKind::kMsgDeliver,
                           obs::kDeliverOk, type, from, seq);
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(), TapEvent::kDelivered);
    }
    BufferReader reader(payload);
    InvokeHandler(recv, from, type, reader, shard.profiler);
  }
  shard.pool.Release(std::move(payload));
}

void Network::DispatchDelivery(Node* sender, Node* receiver, uint32_t type,
                               std::vector<uint8_t> payload, uint32_t seq,
                               Duration latency) {
  SimEnvironment* env = envs_[static_cast<size_t>(sender->id())];
  const NodeId from = sender->id();
  const NodeId to = receiver->id();
  if (shard_of_[static_cast<size_t>(from)] ==
      shard_of_[static_cast<size_t>(to)]) {
    // Same partition (always, for serial clusters): straight onto the
    // sender's event loop. The delivery closure (48 bytes: this + ids +
    // type + the send's flight seq + the payload vector) fits SimCallback's
    // inline buffer, and the payload returns to the pool whether the
    // message is delivered or dropped in flight. Deliveries go through
    // ScheduleMessage so an attached schedule oracle may reorder them; with
    // no oracle it is a plain Schedule.
    env->ScheduleMessage(latency, from, to, type,
                         [this, from, to, type, seq,
                          payload = std::move(payload)]() mutable {
                           Deliver(from, to, type, std::move(payload), seq);
                         });
    return;
  }
  // Cross-partition: key the event on the sender's stream *now* (so the key
  // sequence matches the serial run exactly) and hand it to the receiving
  // partition's mailbox; the window barrier guarantees it arrives before
  // the receiver's clock reaches it. Same closure shape as above.
  if (latency < 0) latency = 0;
  Event e;
  e.time = env->Now() + latency;
  e.seq = env->AllocKey();
  e.fn = [this, from, to, type, seq, payload = std::move(payload)]() mutable {
    Deliver(from, to, type, std::move(payload), seq);
  };
  coord_->EnqueueRemote(shard_of_[static_cast<size_t>(from)],
                        shard_of_[static_cast<size_t>(to)], std::move(e));
}

void Network::Send(NodeId from, NodeId to, uint32_t type,
                   std::vector<uint8_t> payload) {
  Node* sender = node(from);
  Node* receiver = node(to);
  if (!sender->alive()) return;  // a crashed node sends nothing
  SimEnvironment* sender_env = envs_[static_cast<size_t>(from)];
  NetShard& shard = shards_[shard_of_[static_cast<size_t>(from)]];
  Rng& send_rng = send_rngs_[static_cast<size_t>(from)];
  ++shard.stats.messages_sent;
  shard.stats.bytes_sent += payload.size();
  LinkCounters* lc =
      shard.metrics != nullptr ? &shard.link_counters[LinkKey(from, to)]
                               : nullptr;
  if (lc != nullptr) {
    ++lc->attempts;
    lc->bytes += payload.size();
  }

  bool dropped_at_send = false;
  if (partitioned_ && !CanCommunicate(from, to)) {
    ++shard.stats.messages_dropped_partition;
    dropped_at_send = true;
  } else if (!cut_links_.empty() && LinkCut(from, to)) {
    ++shard.stats.messages_dropped_link;
    dropped_at_send = true;
  } else if (loss_rate_ > 0 && send_rng.Bernoulli(loss_rate_)) {
    ++shard.stats.messages_dropped_loss;
    dropped_at_send = true;
  }
  if (dropped_at_send) {
    if (lc != nullptr) ++lc->dropped_at_send;
    if (shard.flight != nullptr) {
      shard.flight->Record(sender_env->Now(), from,
                           obs::FlightKind::kMsgSend, obs::kSendDroppedAtSend,
                           type, to, static_cast<int64_t>(payload.size()));
    }
    if (tap_) {
      tap_(env_->Now(), from, to, type, payload.size(),
           TapEvent::kDroppedAtSend);
    }
    shard.pool.Release(std::move(payload));
    return;
  }
  uint32_t seq = 0;
  if (shard.flight != nullptr) {
    seq = shard.flight->Record(sender_env->Now(), from,
                               obs::FlightKind::kMsgSend, obs::kSendOk, type,
                               to, static_cast<int64_t>(payload.size()));
  }
  if (tap_) tap_(env_->Now(), from, to, type, payload.size(), TapEvent::kSent);

  if (duplicate_rate_ > 0 && send_rng.Bernoulli(duplicate_rate_)) {
    // Inject a copy with an independently sampled latency; it races the
    // original and may arrive first (duplication implies reordering).
    ++shard.stats.messages_duplicated;
    if (lc != nullptr) ++lc->duplicated;
    // The copy pairs with its own send event (it fires its own delivery).
    uint32_t dup_seq = 0;
    if (shard.flight != nullptr) {
      dup_seq = shard.flight->Record(
          sender_env->Now(), from, obs::FlightKind::kMsgSend,
          obs::kSendDuplicated, type, to,
          static_cast<int64_t>(payload.size()));
    }
    std::vector<uint8_t> copy = shard.pool.Acquire();
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
  // causal stream, whether the crash came from the serial loop or a PDES
  // barrier.
  envs_[static_cast<size_t>(id)]->SetCurrentStream(static_cast<uint32_t>(id) +
                                                   1);
  n->HandleCrash();
}

void Network::Recover(NodeId id) {
  Node* n = node(id);
  if (n->alive()) return;
  SAMYA_LOG_INFO("t=%s node %d (%s) RECOVERED",
                 FormatDuration(env_->Now()).c_str(), id,
                 RegionName(n->region()));
  MarkRecovered(*n);
  envs_[static_cast<size_t>(id)]->SetCurrentStream(static_cast<uint32_t>(id) +
                                                   1);
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
  SimEnvironment* env = envs_[static_cast<size_t>(n->id())];
  // The timer id is the fire event's queue handle, so `DisarmTimer` can
  // remove the event; the closure is built knowing it. The network is
  // reached through the node's runtime pointer (not a captured `this`),
  // keeping the closure small and trivially copyable.
  const uint64_t timer_id = env->ScheduleAtWithHandle(
      env->Now() + std::max<Duration>(delay, 0),
      [n, token, epoch](uint64_t id) {
        return [n, id, token, epoch]() {
          // Fire guard shared with the real backend (rt/node.h): dead,
          // stale epoch, or cancelled timers never fire.
          if (!TimerShouldFire(*n, id, epoch)) return;
          Network* net = static_cast<Network*>(runtime_of(*n));
          // Timer fire is an entry into node code: key allocations inside
          // the handler belong to the node's causal stream.
          const size_t idx = static_cast<size_t>(n->id());
          net->envs_[idx]->SetCurrentStream(static_cast<uint32_t>(n->id()) +
                                            1);
          obs::EventLoopProfiler* prof =
              net->shards_[net->shard_of_[idx]].profiler;
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

void Network::DisarmTimer(Node* n, uint64_t timer_id) {
  envs_[static_cast<size_t>(n->id())]->Cancel(timer_id);
}

void Network::Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
                   size_t n) {
  // Copy the encoded bytes into a pooled buffer rather than allocating a
  // fresh vector per message; the network recycles it after delivery.
  std::vector<uint8_t> buf = AcquireSendBuffer(from->id());
  buf.assign(data, data + n);
  Send(from->id(), to, type, std::move(buf));
}

}  // namespace samya::sim
