#ifndef SAMYA_SIM_NETWORK_H_
#define SAMYA_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/buffer_pool.h"
#include "common/flat_set64.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rt/node.h"
#include "sim/environment.h"
#include "sim/latency_model.h"
#include "sim/node.h"

namespace samya::sim {

/// Lifecycle stage reported through the `MessageTap`.
///
/// Every `Send` from an alive sender fires exactly one of `kSent` (accepted
/// for transmission) or `kDroppedAtSend` (cut at send time by a partition,
/// link cut, or Bernoulli loss). A `kSent` message later fires exactly one of
/// `kDelivered` or `kDroppedAtDelivery` (receiver crashed, or a partition /
/// link cut formed while it was in flight). Duplicated copies fire their own
/// terminal event but no extra `kSent`.
enum class TapEvent : uint8_t {
  kSent,
  kDroppedAtSend,
  kDelivered,
  kDroppedAtDelivery,
};

const char* TapEventName(TapEvent ev);

/// Observation hook: called at each message lifecycle stage (see TapEvent).
using MessageTap = std::function<void(SimTime at, NodeId from, NodeId to,
                                      uint32_t type, size_t bytes,
                                      TapEvent event)>;

/// Counters exposed for tests and experiment reports.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped_loss = 0;
  uint64_t messages_dropped_partition = 0;
  uint64_t messages_dropped_crashed = 0;
  uint64_t messages_dropped_link = 0;  ///< one-way link cuts (send + in-flight)
  uint64_t messages_duplicated = 0;    ///< extra copies injected
  uint64_t bytes_sent = 0;
};

/// Per-directed-link counters, kept only while a `MetricsRegistry` is
/// attached (see `Network::set_observability`). Accounting is exclusive:
/// attempts + duplicated == dropped_at_send + delivered + dropped_at_delivery
/// once the queue drains (duplicate copies skip `attempts` but share the
/// terminal counters, mirroring the `MessageTap` contract).
struct LinkCounters {
  uint64_t attempts = 0;  ///< Sends from an alive sender (copies excluded)
  uint64_t duplicated = 0;
  uint64_t dropped_at_send = 0;
  uint64_t delivered = 0;
  uint64_t dropped_at_delivery = 0;
  uint64_t bytes = 0;  ///< payload bytes attempted on this link
};

class PdesCoordinator;

/// \brief Simulated asynchronous geo-distributed network (§3.1's model:
/// messages may be delayed, dropped, duplicated, or reordered; crash faults;
/// partitions; asymmetric link cuts; delay storms).
///
/// Messages are byte buffers; delivery latency is drawn from the
/// `LatencyModel` for the sender/receiver region pair, then scaled by the
/// global delay factor and any per-link factor. Partition groups cut all
/// communication between groups. A link cut severs one direction only. Loss
/// and duplication are Bernoulli per message.
///
/// Under conservative-window PDES (sim/pdes.h, DESIGN.md §11) the network's
/// mutable hot state — stats, buffer pool, link counters, obs sinks — lives
/// in per-partition *shards* so concurrent windows never share a cache line,
/// and latency/loss/duplication draws come from per-sender RNG streams so
/// the draw sequence depends only on each node's own send order, never on
/// how partitions interleave. A serial cluster is the degenerate single-
/// shard case and takes no extra branches on the send/deliver path.
///
/// This is the simulator's implementation of the `rt::Runtime` seam
/// (DESIGN.md §14); `rt::RealCluster` is the real-thread/socket one.
class Network : public rt::Runtime {
 public:
  Network(SimEnvironment* env, LatencyModel model);

  /// Registers a node; the node's id must equal its registration order.
  /// Events for the node run on `env` (the primary environment for serial
  /// clusters, its partition's environment under PDES) and its network-side
  /// state lives in shard `shard`.
  void Register(Node* node, SimEnvironment* env, uint32_t shard);
  void Register(Node* node) { Register(node, env_, 0); }

  /// rt::Runtime transport entry (Node::Send): copies the encoded bytes
  /// into a pooled buffer and forwards to the id-based overload below.
  void Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
            size_t n) override;

  /// Sends an encoded message. The payload vector is recycled through
  /// `buffer_pool()` after delivery (or drop), so callers on the hot path
  /// should acquire it from the pool.
  void Send(NodeId from, NodeId to, uint32_t type,
            std::vector<uint8_t> payload);

  /// Crashes a node: invalidates its timers, runs HandleCrash, and drops all
  /// of its future deliveries until recovery.
  void Crash(NodeId id);

  /// Recovers a crashed node (runs HandleRecover).
  void Recover(NodeId id);

  /// Installs a partition: nodes in different groups cannot communicate.
  /// Nodes absent from every group land in an implicit final group together.
  void SetPartition(const std::vector<std::vector<NodeId>>& groups);

  /// Heals any partition.
  void ClearPartition();

  bool Partitioned() const { return partitioned_; }
  bool CanCommunicate(NodeId a, NodeId b) const;

  /// Cuts the directed link `from -> to`: messages in that direction drop
  /// (at send time, and in flight at delivery time). The reverse direction
  /// is unaffected, which models an asymmetric partition.
  void CutLink(NodeId from, NodeId to);

  /// Restores a previously cut directed link (no-op if not cut).
  void RestoreLink(NodeId from, NodeId to);

  /// True iff the directed link `from -> to` is currently cut.
  bool LinkCut(NodeId from, NodeId to) const;

  /// Multiplies the sampled latency of the directed link `from -> to` by
  /// `factor` (a "delay storm" on one link). `factor == 1.0` removes the
  /// override. Composes multiplicatively with the global delay factor.
  void SetLinkDelayFactor(NodeId from, NodeId to, double factor);

  /// Removes every link cut and per-link delay override.
  void ClearLinkFaults();

  /// Multiplies every sampled latency by `f` (global delay storm).
  void set_delay_factor(double f) { delay_factor_ = f; }
  double delay_factor() const { return delay_factor_; }

  /// Probability in [0,1] that any given message is silently lost.
  void set_loss_rate(double p) { loss_rate_ = p; }
  double loss_rate() const { return loss_rate_; }

  /// Probability in [0,1] that a transmitted message is delivered twice;
  /// the copy takes an independently sampled latency, so it may arrive
  /// before the original (reordering) or be dropped independently.
  void set_duplicate_rate(double p) { duplicate_rate_ = p; }
  double duplicate_rate() const { return duplicate_rate_; }

  Node* node(NodeId id) const;
  size_t num_nodes() const { return nodes_.size(); }
  bool IsAlive(NodeId id) const;

  SimEnvironment* env() { return env_; }
  /// The environment node `id`'s events run on: the primary environment for
  /// serial clusters, the partition's under PDES.
  SimEnvironment* EnvFor(NodeId id) const {
    return envs_[static_cast<size_t>(id)];
  }
  LatencyModel* latency_model() { return &model_; }

  /// Network-wide counters, summed across shards. Returned by value (the
  /// per-shard counters are the source of truth); `const auto&` binding at
  /// call sites still works via lifetime extension.
  NetworkStats stats() const {
    NetworkStats total = shards_[0].stats;
    for (size_t i = 1; i < shards_.size(); ++i) {
      const NetworkStats& s = shards_[i].stats;
      total.messages_sent += s.messages_sent;
      total.messages_delivered += s.messages_delivered;
      total.messages_dropped_loss += s.messages_dropped_loss;
      total.messages_dropped_partition += s.messages_dropped_partition;
      total.messages_dropped_crashed += s.messages_dropped_crashed;
      total.messages_dropped_link += s.messages_dropped_link;
      total.messages_duplicated += s.messages_duplicated;
      total.bytes_sent += s.bytes_sent;
    }
    return total;
  }

  /// Shard-0 buffer pool (the only pool for serial clusters).
  BufferPool* buffer_pool() { return &shards_[0].pool; }

  /// Acquires a send buffer from the sender's shard pool (Node::Send).
  std::vector<uint8_t> AcquireSendBuffer(NodeId from) {
    return shards_[shard_of_[static_cast<size_t>(from)]].pool.Acquire();
  }

  /// Installs a message tap (analysis/debugging; pass nullptr to remove).
  void set_message_tap(MessageTap tap) { tap_ = std::move(tap); }

  /// Attaches observability components (DESIGN.md §8); any may be null.
  ///  - flight: records message send/delivery fates; each delivery carries
  ///    its send's seq, pairing the two. Shard-local under PDES.
  ///  - metrics: enables per-directed-link `LinkCounters`.
  ///  - profiler: attributes handler wall-time by message type / timer.
  void set_observability(obs::FlightRecorder* flight,
                         obs::MetricsRegistry* metrics,
                         obs::EventLoopProfiler* profiler) {
    shards_[0].flight = flight;
    shards_[0].metrics = metrics;
    shards_[0].profiler = profiler;
  }

  bool has_message_tap() const { return static_cast<bool>(tap_); }
  obs::MetricsRegistry* metrics() const { return shards_[0].metrics; }
  obs::FlightRecorder* flight() const { return shards_[0].flight; }

  /// Metrics registry a node should record into: its shard's registry under
  /// PDES, the primary one otherwise. Null when metrics are off.
  obs::MetricsRegistry* metrics_for(NodeId id) const override {
    return shards_[shard_of_[static_cast<size_t>(id)]].metrics;
  }

  /// Flight recorder a node should record into: its shard's recorder under
  /// PDES, the primary one otherwise. Null when the recorder is off.
  obs::FlightRecorder* flight_for(NodeId id) const override {
    return shards_[shard_of_[static_cast<size_t>(id)]].flight;
  }

  /// Per-link counters keyed by `LinkKey`, merged across shards (each
  /// directed link is counted by exactly one shard — the sender's for send-
  /// side events, the receiver's for delivery — so merging just sums).
  /// Empty unless a metrics registry is attached. Returned by value; decode
  /// keys with `LinkKeyFrom` / `LinkKeyTo`.
  std::unordered_map<uint64_t, LinkCounters> link_counters() const {
    std::unordered_map<uint64_t, LinkCounters> total = shards_[0].link_counters;
    for (size_t i = 1; i < shards_.size(); ++i) {
      for (const auto& [key, lc] : shards_[i].link_counters) {
        LinkCounters& t = total[key];
        t.attempts += lc.attempts;
        t.duplicated += lc.duplicated;
        t.dropped_at_send += lc.dropped_at_send;
        t.delivered += lc.delivered;
        t.dropped_at_delivery += lc.dropped_at_delivery;
        t.bytes += lc.bytes;
      }
    }
    return total;
  }
  static NodeId LinkKeyFrom(uint64_t key) {
    return static_cast<NodeId>(key >> 32) - 1;
  }
  static NodeId LinkKeyTo(uint64_t key) {
    return static_cast<NodeId>(key & 0xffffffffu) - 1;
  }

  // rt::Runtime timer entry (Node::SetTimer): arms on the node's event loop.
  uint64_t ArmTimer(Node* node, Duration delay, uint64_t token) override;

  // rt::Runtime cancel hook (Node::CancelTimer): the fire event leaves the
  // node's queue, so it is never popped or counted.
  void DisarmTimer(Node* node, uint64_t timer_id) override;

  // --- PDES wiring (sim/pdes.h) ---------------------------------------------

  /// Splits hot state into `num_partitions` shards and routes cross-
  /// partition sends through `coord`'s mailboxes. Called once by the
  /// coordinator at finalize, before any message flows.
  void EnablePdes(PdesCoordinator* coord, size_t num_partitions);

  /// Serial fallback: re-points every node at the primary environment and
  /// collapses shard routing to shard 0. Installed obs shard pointers stay
  /// valid (the coordinator still merges them at run end).
  void ForceSerial();

  /// True iff the global factor or any per-link factor is below 1 — then
  /// observed latency can undercut the model's base, which invalidates the
  /// conservative-window lookahead.
  bool AnyDelayFactorBelowOne() const {
    if (delay_factor_ < 1.0) return true;
    for (const auto& [key, factor] : link_delay_factor_) {
      if (factor < 1.0) return true;
    }
    return false;
  }

  /// Installs partition `shard`'s obs sinks (coordinator-owned registries
  /// that merge into the primary ones in partition order at run end).
  void set_shard_observability(uint32_t shard, obs::MetricsRegistry* metrics,
                               obs::EventLoopProfiler* profiler,
                               obs::FlightRecorder* flight = nullptr) {
    shards_[shard].metrics = metrics;
    shards_[shard].profiler = profiler;
    shards_[shard].flight = flight;
  }

  uint32_t shard_of(NodeId id) const {
    return shard_of_[static_cast<size_t>(id)];
  }
  size_t num_shards() const { return shards_.size(); }

 private:
  static uint64_t LinkKey(NodeId from, NodeId to) {
    // +1 keeps the key nonzero for every valid (from, to) pair, since
    // FlatSet64 reserves key 0 as its empty sentinel.
    return (static_cast<uint64_t>(static_cast<uint32_t>(from + 1)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(to + 1));
  }

  /// Per-partition slice of the network's mutable hot state. Cache-line
  /// aligned so concurrent partition windows never false-share. A serial
  /// cluster has exactly one shard.
  struct alignas(64) NetShard {
    NetworkStats stats;
    BufferPool pool;
    std::unordered_map<uint64_t, LinkCounters> link_counters;
    obs::MetricsRegistry* metrics = nullptr;
    obs::EventLoopProfiler* profiler = nullptr;
    obs::FlightRecorder* flight = nullptr;
  };

  /// Samples link latency from `rng` (the sender's stream) and applies
  /// global and per-link delay factors.
  Duration ScaledLatency(Node* sender, Node* receiver, Rng& rng);

  /// Schedules a delivery closure: locally when sender and receiver share a
  /// partition, through the coordinator's mailboxes otherwise.
  /// `seq` is the flight recorder's stamp on the send event (0 when the
  /// recorder is off); it rides the delivery closure into `Deliver`.
  void DispatchDelivery(Node* sender, Node* receiver, uint32_t type,
                        std::vector<uint8_t> payload, uint32_t seq,
                        Duration latency);

  /// Delivery-time half of `Send`: runs when a scheduled copy arrives.
  void Deliver(NodeId from, NodeId to, uint32_t type,
               std::vector<uint8_t> payload, uint32_t seq);

  /// Runs the receiver's handler, timed when the profiler is attached.
  void InvokeHandler(Node* recv, NodeId from, uint32_t type,
                     BufferReader& reader, obs::EventLoopProfiler* profiler);

  SimEnvironment* env_;
  LatencyModel model_;
  std::vector<Node*> nodes_;
  /// Per-node event environment (what `node->env_` was before the rt seam):
  /// the primary environment for serial clusters, the partition's under
  /// PDES. Indexed by node id, parallel to `nodes_`.
  std::vector<SimEnvironment*> envs_;
  std::vector<int> partition_group_;  // per node; meaningful iff partitioned_
  bool partitioned_ = false;
  double loss_rate_ = 0.0;
  double duplicate_rate_ = 0.0;
  double delay_factor_ = 1.0;
  FlatSet64 cut_links_;  // directed cuts, keyed by LinkKey(from, to)
  std::unordered_map<uint64_t, double> link_delay_factor_;
  Rng rng_;  ///< forking parent only; no per-message draws (see send_rngs_)
  /// Per-sender RNG streams for loss/duplication/latency draws. Draw order
  /// depends only on the sender's own send sequence, which is what makes
  /// parallel partition execution bit-identical to the serial loop.
  std::vector<Rng> send_rngs_;
  std::vector<uint32_t> shard_of_;  ///< per node; all 0 for serial clusters
  std::vector<NetShard> shards_;    ///< size 1 until EnablePdes
  PdesCoordinator* coord_ = nullptr;
  MessageTap tap_;
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_NETWORK_H_
