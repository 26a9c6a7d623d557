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

/// \brief Simulated asynchronous geo-distributed network (§3.1's model:
/// messages may be delayed, dropped, duplicated, or reordered; crash faults;
/// partitions; asymmetric link cuts; delay storms).
///
/// Messages are byte buffers; delivery latency is drawn from the
/// `LatencyModel` for the sender/receiver region pair, then scaled by the
/// global delay factor and any per-link factor. Partition groups cut all
/// communication between groups. A link cut severs one direction only. Loss
/// and duplication are Bernoulli per message. Latency, loss and duplication
/// draws come from per-sender RNG streams, so each node's draw sequence
/// depends only on its own send order.
///
/// This is the simulator's implementation of the `rt::Runtime` seam
/// (DESIGN.md §14); `rt::RealCluster` is the real-thread/socket one.
class Network : public rt::Runtime {
 public:
  Network(SimEnvironment* env, LatencyModel model);

  /// Registers a node; the node's id must equal its registration order.
  void Register(Node* node);

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

  const NetworkStats& stats() const { return stats_; }

  BufferPool* buffer_pool() { return &pool_; }

  /// Installs a message tap (analysis/debugging; pass nullptr to remove).
  void set_message_tap(MessageTap tap) { tap_ = std::move(tap); }

  /// Attaches observability components (DESIGN.md §8); any may be null.
  ///  - flight: records message send/delivery fates; each delivery carries
  ///    its send's seq, pairing the two.
  ///  - metrics: enables per-directed-link `LinkCounters`.
  ///  - profiler: attributes handler wall-time by message type / timer.
  void set_observability(obs::FlightRecorder* flight,
                         obs::MetricsRegistry* metrics,
                         obs::EventLoopProfiler* profiler) {
    flight_ = flight;
    metrics_ = metrics;
    profiler_ = profiler;
  }

  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::FlightRecorder* flight() const { return flight_; }

  /// Every node records into the network's registry and recorder; null
  /// when that component is off.
  obs::MetricsRegistry* metrics_for(NodeId) const override { return metrics_; }
  obs::FlightRecorder* flight_for(NodeId) const override { return flight_; }

  /// Per-link counters keyed by `LinkKey`. Empty unless a metrics registry
  /// is attached. Decode keys with `LinkKeyFrom` / `LinkKeyTo`.
  const std::unordered_map<uint64_t, LinkCounters>& link_counters() const {
    return link_counters_;
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

 private:
  static uint64_t LinkKey(NodeId from, NodeId to) {
    // +1 keeps the key nonzero for every valid (from, to) pair, since
    // FlatSet64 reserves key 0 as its empty sentinel.
    return (static_cast<uint64_t>(static_cast<uint32_t>(from + 1)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(to + 1));
  }

  /// Samples link latency from `rng` (the sender's stream) and applies
  /// global and per-link delay factors.
  Duration ScaledLatency(Node* sender, Node* receiver, Rng& rng);

  /// Schedules a delivery closure on the event loop. `seq` is the flight recorder's stamp on the send event (0 when the
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
  std::vector<int> partition_group_;  // per node; meaningful iff partitioned_
  bool partitioned_ = false;
  double loss_rate_ = 0.0;
  double duplicate_rate_ = 0.0;
  double delay_factor_ = 1.0;
  FlatSet64 cut_links_;  // directed cuts, keyed by LinkKey(from, to)
  std::unordered_map<uint64_t, double> link_delay_factor_;
  Rng rng_;  ///< forking parent only; no per-message draws (see send_rngs_)
  /// Per-sender RNG streams for loss/duplication/latency draws. Draw order
  /// depends only on the sender's own send sequence.
  std::vector<Rng> send_rngs_;
  NetworkStats stats_;
  BufferPool pool_;
  std::unordered_map<uint64_t, LinkCounters> link_counters_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventLoopProfiler* profiler_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  MessageTap tap_;
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_NETWORK_H_
