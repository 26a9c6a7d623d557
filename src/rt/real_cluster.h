#ifndef SAMYA_RT_REAL_CLUSTER_H_
#define SAMYA_RT_REAL_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include <mutex>

#include "common/random.h"
#include "common/time.h"
#include "obs/flight_recorder.h"
#include "rt/latency_model.h"
#include "rt/node.h"
#include "storage/stable_storage.h"

namespace samya::rt {

/// In-process netem: the shaping every datagram goes through on the real
/// backend. Latency and jitter come from the same `LatencyModel` the
/// simulator samples (the paper's 5-region RTT matrix by default). The
/// sender draws them and stamps the due instant in the frame; the datagram
/// hits the socket at once, and the receiver's loop holds it until due, so
/// localhost UDP behaves like the modelled WAN. Loss and duplication are
/// Bernoulli per message, exactly the simulator's semantics.
struct NetemConfig {
  LatencyModel model;
  double delay_factor = 1.0;
  double loss_rate = 0.0;
  double duplicate_rate = 0.0;
  uint64_t seed = 42;
};

/// Counters mirroring `sim::NetworkStats` where the semantics carry over.
/// `messages_sent` counts every Send from an alive sender (before shaping),
/// like the simulator — the sim-vs-real messages/request comparison in
/// tools/samya_real depends on the two backends counting identically.
struct RealNetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped_loss = 0;
  uint64_t messages_dropped_crashed = 0;
  uint64_t messages_duplicated = 0;
  uint64_t bytes_sent = 0;
  /// Datagrams rejected by wire framing (rt/wire.h): short, bad magic/
  /// version/length, or CRC mismatch. Never decoded, never dispatched.
  uint64_t frames_rejected = 0;
};

/// How far ahead of its due instant a held datagram may be delivered. A loop
/// woken for one due datagram delivers every other held one due within this
/// window in the same wakeup, instead of sleeping again for each: one wake
/// serves a burst, at a bounded cost in fidelity (no delivery is earlier
/// than its drawn latency minus this).
inline constexpr Duration kDeliveryWindow = 100;

/// \brief The real-thread/socket backend of the `Runtime` seam
/// (DESIGN.md §14): one event-loop thread per node, UDP datagrams over
/// localhost, monotonic clocks, and an in-process netem latency injector.
///
/// The same protocol sources that run in the simulator run here unmodified:
/// each node's handlers execute only on its own loop thread (the execution
/// contract of `rt::Node`), timers share the simulator's epoch/cancel guard
/// via `Runtime::TimerShouldFire`, and every datagram is CRC-framed so a
/// torn or stale packet is rejected whole.
///
/// Netem runs at the receiver: `Send` draws loss, duplication and latency,
/// stamps the due instant in the frame and sends it at once; the receiving
/// loop validates each datagram on arrival and holds its payload in a
/// min-heap on (due, arrival order) until due. Whether the receiver is alive
/// is checked at delivery, as in the simulator.
///
/// Backend contract (vs. the simulator — see DESIGN.md §14 for the table):
/// delivery order at a receiver is latency-model order (due instant, ties in
/// arrival order), as in the simulator, but a delivery may run up to
/// `kDeliveryWindow` early; the kernel may drop under socket-buffer pressure
/// even with `loss_rate == 0`; wall-clock latency adds scheduling noise on
/// top of the injected model. Protocol code already tolerates all of this
/// (§3.1's asynchronous network).
///
/// Wakeups: each loop sleeps in `ppoll` on its socket and a per-loop
/// eventfd, until exactly its next timer or held-datagram due instant, or
/// indefinitely when it has neither; it never polls while idle. An arriving
/// datagram wakes it to be held, Post (and so Crash/Recover) and Shutdown
/// through the eventfd. Deadlines are met to within the kernel's timer slack
/// (~50 µs by default); timers never fire early.
///
/// Lifecycle: AddNode* -> Start() -> (RunFor / Post / Crash / Recover)* ->
/// Shutdown(). `stats()` and the per-node flight rings are exact only
/// after Shutdown (loop-local state is unsynchronized while running).
class RealCluster : public Runtime {
 public:
  explicit RealCluster(NetemConfig config = NetemConfig());
  ~RealCluster() override;

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Adds a node before Start(). Ids are assigned in call order, matching
  /// `sim::Cluster::AddNode`, so deployment builders are backend-generic.
  template <typename T, typename... Args>
  T* AddNode(Region region, Args&&... args) {
    const NodeId id = static_cast<NodeId>(loops_.size());
    auto node = std::make_unique<T>(id, region, std::forward<Args>(args)...);
    T* ptr = node.get();
    RegisterNode(std::move(node), region);
    return ptr;
  }

  /// Crash-surviving stable storage for node `id` (in-memory, like the
  /// simulator's; the durability contract under test is the protocol's).
  storage::StableStorage* StorageFor(NodeId id);

  /// Creates a per-node FlightRecorder, returned by `flight_for`. Call
  /// before Start(). Each ring is only ever touched by its node's loop
  /// thread.
  void EnableObservability(size_t flight_capacity = 4096);

  /// Binds sockets, spawns one loop thread per node, and runs every node's
  /// Start() on its own loop.
  void Start();

  /// Stops and joins all loops. Idempotent; also run by the destructor.
  void Shutdown();

  /// Lets the cluster run for `d` of wall-clock time (the caller sleeps).
  void RunFor(Duration d);

  /// Runs `fn` on node `id`'s loop thread, serialized with its handlers.
  /// The only sanctioned way to touch node state from outside its loop.
  /// Valid only between Start() and Shutdown(), like Barrier().
  void Post(NodeId id, std::function<void()> fn);

  /// Crash/recover with the simulator's exact semantics: timers are
  /// invalidated via the shared epoch guard, deliveries to a crashed node
  /// drop, HandleCrash/HandleRecover run on the node's own loop.
  void Crash(NodeId id);
  void Recover(NodeId id);

  /// Blocks until every closure posted (and every crash/recover) before
  /// this call has executed. Pairs with Post for read-backs from tests.
  void Barrier();

  size_t num_nodes() const { return loops_.size(); }
  Node* node(NodeId id) const;

  /// Summed loop-local counters; exact after Shutdown.
  RealNetStats stats() const;

  /// Monotonic microseconds since Start(), the same timebase every node's
  /// `Now()` reads. Usable from any thread.
  SimTime NowUs() const;

  // --- Runtime seam (called from node loop threads) ------------------------
  void Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
            size_t n) override;
  uint64_t ArmTimer(Node* node, Duration delay, uint64_t token) override;
  obs::FlightRecorder* flight_for(NodeId id) const override;

 private:
  struct TimerEntry {
    SimTime due = 0;
    uint64_t timer_id = 0;
    uint64_t token = 0;
    uint64_t epoch = 0;
    bool operator>(const TimerEntry& o) const { return due > o.due; }
  };

  /// A validated datagram's payload, held until its netem due instant.
  struct HeldDatagram {
    SimTime due = 0;   ///< µs since Start, like `now_us`
    uint64_t seq = 0;  ///< arrival order: the tie-break for equal due times
    NodeId from = kInvalidNode;
    uint32_t type = 0;
    std::vector<uint8_t> payload;
    bool operator>(const HeldDatagram& o) const {
      if (due != o.due) return due > o.due;
      return seq > o.seq;
    }
  };

  /// One node's event loop: socket, timers, netem inbox, control queue,
  /// and the clock cell its node's `Now()` reads. All fields other than the
  /// control queue are loop-thread-local once Start() has run.
  struct Loop {
    Node* node = nullptr;
    int fd = -1;
    uint16_t port = 0;
    SimTime now_us = 0;
    Rng send_rng{0};
    uint64_t arrival_seq = 0;
    std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                        std::greater<TimerEntry>>
        timers;
    /// Min-heap (std::push_heap / pop_heap with std::greater): a plain
    /// vector so delivery can move the payload out of the top entry.
    std::vector<HeldDatagram> inbox;
    std::mutex ctl_mu;
    std::condition_variable ctl_done;  ///< notified after each ++ctl_executed
    std::deque<std::function<void()>> ctl;
    uint64_t ctl_executed = 0;  // under ctl_mu
    uint64_t ctl_posted = 0;    // under ctl_mu
    /// eventfd other threads write to end the loop's ppoll (see Wake).
    int wake_fd = -1;
    RealNetStats stats;
    std::vector<uint8_t> encode_scratch;
    std::thread thread;
    std::atomic<bool> stop{false};
  };

  void RegisterNode(std::unique_ptr<Node> node, Region region);
  /// Ends `loop`'s current or next ppoll. Any thread may call it while the
  /// loops run; every foreign write to a loop's state is followed by one.
  void Wake(Loop* loop);
  void LoopMain(Loop* loop);
  /// One loop iteration body, split out for testability: runs control
  /// closures, drains the socket into the inbox, fires due timers, and
  /// delivers the held datagrams due within `kDeliveryWindow`.
  void LoopTick(Loop* loop);
  void DrainSocket(Loop* loop);
  void DeliverDue(Loop* loop);
  void Dispatch(Loop* loop, NodeId from, uint32_t type, const uint8_t* data,
                size_t n);

  NetemConfig config_;
  Rng rng_;  ///< forking parent for per-node rng/send_rng streams
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<storage::InMemoryStableStorage>> storages_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights_;
  std::vector<uint16_t> ports_;  ///< node id -> UDP port, fixed at Start
  /// Start() instant in µs on `CLOCK_MONOTONIC`: `now_us` values are
  /// offsets from it, frame `due_us` values absolute.
  SimTime epoch_mono_us_ = 0;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace samya::rt

#endif  // SAMYA_RT_REAL_CLUSTER_H_
