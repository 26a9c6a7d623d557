#ifndef SAMYA_SIM_PDES_H_
#define SAMYA_SIM_PDES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/environment.h"
#include "sim/event_queue.h"
#include "sim/latency_model.h"

namespace samya::sim {

class Network;

/// Knobs for conservative-window parallel discrete-event simulation.
struct PdesOptions {
  /// Worker threads executing partition windows. <= 1 selects the plain
  /// serial loop (zero PDES machinery on the hot path); clamped to the
  /// number of partitions (co-located region groups) at finalize.
  int workers = 1;
};

/// Per-worker wall-clock attribution of one PDES run. `busy_ns` is time
/// inside `ExecuteClaim`; everything else the worker spent scanning for a
/// claim or spinning at the lead bound (barrier stall).
struct PdesWorkerStats {
  uint64_t claims = 0;
  int64_t busy_ns = 0;
};

/// Per-partition execution accounting of one PDES run.
struct PdesPartitionStats {
  uint64_t claims = 0;
  uint64_t windows = 0;
  uint64_t mailbox_events = 0;     ///< cross-partition events drained
  uint64_t max_mailbox_batch = 0;  ///< largest single-claim drain
  int64_t busy_ns = 0;             ///< wall time executing this partition
};

/// Whole-run PDES runtime attribution (satellite of DESIGN.md §8): why a
/// flat speedup curve is flat — barrier cost, worker idle share, and which
/// partition gates the rest. Wall-clock based, so nondeterministic; never
/// part of any digest. Valid after the run (workers joined).
struct PdesRunStats {
  uint64_t phases = 0;
  uint64_t barriers = 0;
  int64_t barrier_ns = 0;     ///< wall time inside global-op barriers
  int64_t phase_wall_ns = 0;  ///< wall time inside parallel phases
  std::vector<PdesWorkerStats> workers;
  std::vector<PdesPartitionStats> partitions;
};

/// \brief Conservative-window PDES coordinator (DESIGN.md §11).
///
/// Splits a cluster into one partition per region: a node's messages to
/// co-located nodes stay on the partition's own event loop, while
/// cross-region messages take at least `L_min` — the minimum one-way
/// latency between any two occupied regions under the `LatencyModel` —
/// of simulated time to arrive. That lookahead is the classic conservative
/// PDES safety argument: with window `W = L_min / 2`, a partition executing
/// window `j` can only receive cross-partition messages sent in windows
/// `<= j - 2`, so it may run up to `lead = 2` windows past the slowest
/// other partition without ever seeing an event from its past.
///
/// Bit-identity with the serial loop comes from three invariants:
///  - every event's heap tie-break key is a causal (stream, counter) pair
///    (`StreamKeyTable`) whose sequence depends only on per-node behaviour;
///  - every latency/loss/duplication draw comes from a per-sender RNG
///    stream, so draw order depends only on each node's own send order;
///  - driver-stream events (fault schedules, harness hooks) divert to a
///    global queue and run at inter-window barriers, where every partition
///    clock agrees — the same instant, and the same sub-time ordering
///    (stream 0 sorts first), as in the serial run.
///
/// When parallel execution cannot be bit-identical — a schedule oracle is
/// attached, a nemesis shrinks delay factors below 1 (which would shrink
/// the lookahead mid-run), a message tap observes global order,
/// or there are not enough partitions — the coordinator falls back to the
/// serial loop and records why (`fallback_reason`).
class PdesCoordinator final : public GlobalEventSink {
 public:
  PdesCoordinator(SimEnvironment* primary, uint64_t seed, int workers);
  ~PdesCoordinator() override;

  PdesCoordinator(const PdesCoordinator&) = delete;
  PdesCoordinator& operator=(const PdesCoordinator&) = delete;

  /// Called once by the cluster that owns both objects.
  void AttachNetwork(Network* net) { net_ = net; }

  /// Environment + shard for a node in `region`; first sight of a region
  /// opens a new partition. Registration-time only (single-threaded).
  std::pair<SimEnvironment*, uint32_t> PartitionFor(Region region);

  /// GlobalEventSink: a driver-stream (stream-0) event diverted from a
  /// partition queue to the barrier queue.
  void ScheduleGlobal(SimTime t, uint64_t key, SimCallback&& fn) override;

  /// Locks the partition layout, computes the window from the latency
  /// model, splits network state into shards, and creates per-partition
  /// obs registries. Called by `Cluster::StartAll` before any node starts.
  /// May conclude with a serial fallback instead (see `fallback_reason`).
  void Finalize(size_t num_nodes);

  /// Runs the simulation to `t` (inclusive, like SimEnvironment::RunUntil):
  /// alternating parallel phases and global-event barriers when active, the
  /// primary loop otherwise.
  void RunUntil(SimTime t);

  /// Cross-partition delivery handoff (Network::DispatchDelivery). The
  /// event carries its final (time, key); the receiving partition drains it
  /// through `EventQueue::PushBatch` at a window boundary, where the heap
  /// re-imposes the serial (time, seq) order.
  void EnqueueRemote(uint32_t src, uint32_t dst, Event&& e);

  /// Merges per-partition metrics/profilers into the primary ones, in
  /// partition order. Idempotent; must precede reading merged obs. Further
  /// parallel `RunUntil` calls are rejected afterwards (sites cache
  /// histogram pointers, so a second merge would double-count).
  void FinishRun();

  /// Sum of events executed across all partition environments (equals the
  /// serial loop's single-environment count bit-for-bit).
  uint64_t TotalEventsExecuted() const;

  /// True once finalized with parallel execution in effect.
  bool active() const { return finalized_ && fallback_reason_.empty(); }

  /// Why execution is serial; empty while (potentially) parallel.
  const std::string& fallback_reason() const { return fallback_reason_; }

  size_t num_partitions() const { return envs_.size(); }
  int workers() const { return workers_; }
  Duration window() const { return window_; }

  /// Wall-clock attribution of the run so far (empty structs when serial).
  /// Read between runs or after FinishRun — never mid-phase.
  const PdesRunStats& run_stats() const { return run_stats_; }

 private:
  /// Cross-partition mailbox for one (receiver, sender) pair. Heap-
  /// allocated (held by unique_ptr) so the mutex never moves.
  struct Mailbox {
    std::mutex mu;
    std::vector<Event> events;
  };

  /// Per-partition execution state, cache-line aligned: `completed` and
  /// `claimed` are the claim protocol's shared atomics, everything else is
  /// touched only by the current claim holder.
  struct alignas(64) PartitionRuntime {
    /// Highest window index completed this phase (-1 = none). A release
    /// store after the claim's outboxes are flushed; acquire loads bound
    /// other partitions' progress.
    std::atomic<int64_t> completed{-1};
    std::atomic<bool> claimed{false};
    std::vector<std::unique_ptr<Mailbox>> inbox;  ///< indexed by sender
    std::vector<std::vector<Event>> outbox;       ///< indexed by receiver
    std::vector<Event> drain_scratch;
  };

  /// Collapses to the serial loop: drains the global queue (and, after
  /// finalize, every partition queue and mailbox) back into the primary
  /// environment with keys intact, and re-points nodes at it. Safe before
  /// the run or at any inter-run barrier.
  void EnsureSerial(std::string reason);

  /// Executes all partition events in [start, end_exclusive) in parallel.
  void RunPhase(SimTime start, SimTime end_exclusive);

  /// Barrier: advances every clock to `t` and runs the global events due.
  void RunGlobalOpsAt(SimTime t);

  /// Claim-the-laggard scheduling loop, run by every worker of a phase.
  /// `worker` indexes `run_stats_.workers` (exclusive writer).
  void WorkerLoop(int worker);

  /// Runs partition `p` from window `from + 1` through `bound` (drain
  /// mailboxes, execute windows, flush outboxes). Caller holds the claim.
  void ExecuteClaim(int p, int64_t from, int64_t bound);

  SimEnvironment* primary_;
  Network* net_ = nullptr;
  const uint64_t seed_;
  int workers_;
  bool finalized_ = false;
  bool obs_merged_ = false;
  std::string fallback_reason_;

  std::vector<Region> partition_region_;        ///< partition -> region
  std::vector<SimEnvironment*> envs_;           ///< [0] == primary_
  std::vector<std::unique_ptr<SimEnvironment>> extra_envs_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> part_metrics_;
  std::vector<std::unique_ptr<obs::EventLoopProfiler>> part_profilers_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> part_flight_;
  std::vector<std::unique_ptr<PartitionRuntime>> rt_;
  PdesRunStats run_stats_;

  EventQueue global_queue_;  ///< diverted stream-0 events, (time, key) order

  Duration window_ = 0;
  int64_t lead_ = 2;

  // Per-phase state (set by RunPhase, read by workers).
  SimTime phase_start_ = 0;
  SimTime phase_end_ = 0;
  int64_t last_window_ = -1;
  std::atomic<int> done_count_{0};
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_PDES_H_
