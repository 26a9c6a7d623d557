#ifndef SAMYA_SIM_NETWORK_H_
#define SAMYA_SIM_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_map64.h"
#include "obs/flight_recorder.h"
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
/// terminal event but no extra `kSent`. So once the queue drains, accounting
/// per directed link is exclusive: attempted sends + duplicated copies ==
/// drops at send + deliveries + drops at delivery.
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

  /// rt::Runtime transport entry (Node::Send): sends an encoded message.
  /// Each scheduled copy holds the bytes in a payload slot (see
  /// `payloads_`); a message dropped at send is never copied.
  void Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
            size_t n) override;

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

  /// Installs a message tap (analysis/debugging; pass nullptr to remove).
  void set_message_tap(MessageTap tap) { tap_ = std::move(tap); }

  /// Attaches observability components (DESIGN.md §8); any may be null.
  ///  - flight: records message send/delivery fates; each delivery carries
  ///    its send's seq, pairing the two.
  ///  - profiler: attributes handler wall-time by message type / timer.
  /// The middle argument is the retired metrics slot, kept so existing
  /// three-argument callers compile; pass nullptr.
  void set_observability(obs::FlightRecorder* flight, std::nullptr_t,
                         obs::EventLoopProfiler* profiler) {
    flight_ = flight;
    profiler_ = profiler;
  }

  obs::FlightRecorder* flight() const { return flight_; }

  /// Every node records into the network's recorder; null when it is off.
  obs::FlightRecorder* flight_for(NodeId) const override { return flight_; }

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

  /// Copies `data` into a payload slot and schedules its delivery closure
  /// on the event loop. `seq` is the flight recorder's stamp on the send
  /// event (0 when the recorder is off); it rides the closure into
  /// `Deliver`.
  void DispatchDelivery(NodeId from, NodeId to, uint32_t type,
                        const uint8_t* data, size_t n, uint32_t seq,
                        Duration latency);

  /// Delivery-time half of `Send`: runs when a scheduled copy arrives, then
  /// frees its payload slot.
  void Deliver(NodeId from, NodeId to, uint32_t type, uint32_t payload,
               uint32_t seq);

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
  /// Payload slots: one byte buffer per scheduled copy, indexed by the id
  /// its delivery closure holds, and recycled through `free_payloads_` with
  /// its capacity kept. Once the slots have grown to the most copies ever
  /// in flight, a send allocates nothing.
  std::vector<std::vector<uint8_t>> payloads_;
  std::vector<uint32_t> free_payloads_;
  obs::EventLoopProfiler* profiler_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  MessageTap tap_;
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_NETWORK_H_
