#ifndef SAMYA_SIM_ENVIRONMENT_H_
#define SAMYA_SIM_ENVIRONMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/time.h"
#include "obs/profiler.h"
#include "sim/event_queue.h"
#include "sim/schedule_oracle.h"

namespace samya::sim {

/// \brief Allocator of causal event keys: (stream << 28) | counter.
///
/// Every scheduled event carries a 40-bit key that doubles as the heap
/// tie-break at equal times. Keys used to come from one global counter,
/// which made the tie-break depend on global scheduling order — fine for a
/// serial loop, fatal for parallel execution. A *stream* is a causal
/// source: stream 0 is the driver (harness setup, fault schedules), stream
/// `id + 1` is node `id`. Each stream's counter advances only when that
/// stream schedules, so the key sequence is a pure function of per-node
/// behaviour and identical whether partitions run serially or in parallel.
///
/// Stream 0 sorts below every node stream, so at equal times driver events
/// fire before node events — exactly the order the PDES barrier replays
/// them in (DESIGN.md §11).
///
/// Not internally synchronized: under PDES the table is shared across
/// partition environments, but each stream is only ever advanced by the
/// worker that owns its node's partition, and `Reserve` pre-sizes the
/// table before workers start so the vector never reallocates in parallel.
class StreamKeyTable {
 public:
  static constexpr unsigned kCtrBits = 28;

  /// Next key for `stream`. Growth only happens single-threaded (serial
  /// runs, or PDES setup before `Reserve`).
  uint64_t Next(uint32_t stream) {
    if (stream >= ctrs_.size()) ctrs_.resize(stream + 1, 0);
    const uint64_t ctr = ctrs_[stream]++;
    SAMYA_CHECK_LT(ctr, 1ull << kCtrBits);  // 2^28 events per source
    return (static_cast<uint64_t>(stream) << kCtrBits) | ctr;
  }

  /// Pre-sizes the table so `Next` never reallocates (call before workers
  /// start touching it).
  void Reserve(size_t streams) {
    if (streams > ctrs_.size()) ctrs_.resize(streams, 0);
  }

  bool AnyAllocated() const {
    for (uint64_t c : ctrs_) {
      if (c != 0) return true;
    }
    return false;
  }

 private:
  std::vector<uint64_t> ctrs_ = std::vector<uint64_t>(1, 0);
};

/// \brief Diversion target for driver-stream events under PDES.
///
/// When a sink is attached, events scheduled from stream 0 (fault
/// schedules, harness hooks) leave the per-partition queues and go to the
/// coordinator, which runs them at a global barrier so every partition
/// observes them at the same simulated instant.
class GlobalEventSink {
 public:
  virtual ~GlobalEventSink() = default;
  /// Takes a diverted event; its handle is `EventQueue::ForeignHandle(key)`.
  virtual void ScheduleGlobal(SimTime t, uint64_t key, SimCallback&& fn) = 0;
  /// Cancels a diverted event by that handle (see `SimEnvironment::Cancel`).
  virtual bool CancelGlobal(uint64_t handle) = 0;
};

/// \brief Deterministic discrete-event simulation driver.
///
/// Owns the simulated clock and the event heap. All concurrency in the
/// repository is expressed as events on this single-threaded loop: message
/// deliveries, timer expirations, client arrivals, and fault injections.
/// Given the same seed and the same schedule of `Schedule` calls, a run is
/// bit-for-bit reproducible.
///
/// Under conservative-window PDES (sim/pdes.h) one environment exists per
/// partition; each is still strictly single-threaded *within* a window, and
/// ownership hands between workers only at barrier synchronization points.
class SimEnvironment {
 public:
  explicit SimEnvironment(uint64_t seed) : rng_(seed) {}

  SimEnvironment(const SimEnvironment&) = delete;
  SimEnvironment& operator=(const SimEnvironment&) = delete;

  /// Current simulated time (microseconds since simulation start).
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now and returns its handle for
  /// `Cancel`. Negative delays clamp to 0 (the event still runs strictly
  /// after the current one). `SimCallback` is move-only with inline
  /// storage; any callable up to 48 bytes of captures is scheduled without
  /// a heap allocation.
  uint64_t Schedule(Duration delay, SimCallback&& fn) {
    if (delay < 0) delay = 0;
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute simulated time `t` (>= Now()). With a
  /// global sink attached (PDES), driver-stream events divert to the
  /// coordinator's barrier queue; everything else lands in this
  /// environment's own heap.
  uint64_t ScheduleAt(SimTime t, SimCallback&& fn) {
    return ScheduleAtWithHandle(
        t, [&fn](uint64_t) -> SimCallback&& { return std::move(fn); });
  }

  /// `ScheduleAt` for a callback that must know its own handle: `make`
  /// receives the handle and returns the callable to schedule. Timers use
  /// this — the handle is the timer id, checked at fire time.
  template <typename Make>
  uint64_t ScheduleAtWithHandle(SimTime t, Make&& make) {
    SAMYA_CHECK_GE(t, now_);
    const uint64_t key = streams_->Next(current_stream_);
    if (global_sink_ != nullptr && current_stream_ == 0) {
      const uint64_t handle = EventQueue::ForeignHandle(key);
      global_sink_->ScheduleGlobal(t, key, make(handle));
      return handle;
    }
    const uint64_t handle = queue_.Reserve(key);
    queue_.PushReserved(handle, t, make(handle));
    return handle;
  }

  /// Cancels a pending event: it leaves the queue and is never run, nor
  /// counted in `events_executed` or `pending_events`. Stale handles
  /// (already run or cancelled) are no-ops; returns whether an event was
  /// removed. A diverted driver event is cancelled in the PDES barrier
  /// queue.
  bool Cancel(uint64_t handle) {
    if (queue_.Cancel(handle)) return true;
    return global_sink_ != nullptr && global_sink_->CancelGlobal(handle);
  }

  /// Schedules a message delivery `delay` from now, tagged with its network
  /// identity. With no oracle attached this is exactly `Schedule`; with one,
  /// the tag makes the delivery eligible for reordering against other
  /// deliveries in the oracle's window.
  void ScheduleMessage(Duration delay, int32_t from, int32_t to, uint32_t type,
                       SimCallback&& fn) {
    if (delay < 0) delay = 0;
    if (oracle_ == nullptr) {
      queue_.Push(now_ + delay, streams_->Next(current_stream_),
                  std::move(fn));
    } else {
      queue_.PushMessage(now_ + delay, streams_->Next(current_stream_),
                         std::move(fn), EventQueue::MsgMeta{from, to, type});
    }
  }

  /// Runs a single event; returns false when the queue is empty.
  bool Step() {
    if (queue_.empty()) return false;
    if (oracle_ != nullptr) return OracleStep();
    const EventQueue::Popped p = queue_.PopEntry();
    SAMYA_CHECK_GE(p.time, now_);
    now_ = p.time;
    ++events_executed_;
    Invoke(p.slot);
    return true;
  }

  /// Runs events until the clock reaches `t` (events at exactly `t` run).
  void RunUntil(SimTime t);

  /// Runs events for `d` of simulated time from now.
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Drains the queue completely.
  void RunUntilIdle();

  // --- Causal key streams ---------------------------------------------------

  /// Sets the causal stream that subsequent `Schedule*` calls allocate keys
  /// from. The simulator's entry points into node code (message delivery,
  /// timer fire, crash/recover, Start) each set the target node's stream
  /// (`id + 1`) before invoking it, and driver code runs on stream 0 — so
  /// key sequences depend only on per-node behaviour, never on how node
  /// executions interleave globally.
  void SetCurrentStream(uint32_t stream) { current_stream_ = stream; }
  uint32_t current_stream() const { return current_stream_; }

  /// Shares another environment's stream table (PDES: all partitions draw
  /// from one table so keys stay globally unique and serial-identical).
  void ShareStreamTable(StreamKeyTable* table) { streams_ = table; }
  StreamKeyTable* stream_table() { return streams_; }

  /// Allocates the next causal key on the current stream without scheduling
  /// (cross-partition sends key the event here, deliver it elsewhere).
  uint64_t AllocKey() { return streams_->Next(current_stream_); }

  // --- Conservative-window PDES hooks (sim/pdes.h) --------------------------

  /// Diverts stream-0 events to `sink` (nullptr detaches; see ScheduleAt).
  void set_global_sink(GlobalEventSink* sink) { global_sink_ = sink; }

  /// Runs every event with time strictly below `horizon`. The clock is left
  /// at the last executed event (callers advance it at barriers).
  void RunWindow(SimTime horizon) {
    while (!queue_.empty() && queue_.NextTime() < horizon) Step();
  }

  /// Advances the clock to a barrier time without running anything.
  void AdvanceNowTo(SimTime t) {
    SAMYA_CHECK_GE(t, now_);
    now_ = t;
  }

  /// Runs a callback as if it had been popped from this queue at Now():
  /// same event accounting, same profiler treatment. The PDES barrier uses
  /// this to execute diverted driver events.
  void RunExternal(SimCallback&& fn) {
    ++events_executed_;
    if (profiler_ == nullptr) {
      fn();
    } else {
      const int64_t t0 = obs::EventLoopProfiler::NowNs();
      fn();
      profiler_->AccountEvent(obs::EventLoopProfiler::NowNs() - t0);
    }
  }

  /// Bulk-pushes events that already carry keys (mailbox drains).
  void InjectEvents(std::vector<Event>* evs) { queue_.PushBatch(evs); }

  /// Bulk-pushes events re-homed from other queues (the serial fallback
  /// folds the barrier and partition queues into the primary). Their
  /// handles stay cancellable here: the queue finds them by key.
  void AdoptEvents(std::vector<Event>* evs) { queue_.AdoptBatch(evs); }

  /// Drains this queue into `out` in pop order, keys intact (serial
  /// fallback moves partition queues back into the primary environment).
  void ExtractEventsUntil(SimTime horizon, std::vector<Event>* out) {
    queue_.ExtractUntil(horizon, out);
  }

  /// Root RNG for the run; components should `Fork` child streams.
  Rng& rng() { return rng_; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }

  /// Attaches the event-loop profiler (nullptr = disabled, the default; the
  /// loop then takes a single never-taken branch per event).
  void set_profiler(obs::EventLoopProfiler* profiler) { profiler_ = profiler; }
  obs::EventLoopProfiler* profiler() const { return profiler_; }

  /// Attaches a schedule oracle (nullptr = disabled, the default: the loop
  /// stays on its untouched FIFO hot path). Must be attached before any
  /// event is scheduled — the queue needs every slot meta-tagged.
  void set_oracle(ScheduleOracle* oracle) {
    oracle_ = oracle;
    if (oracle_ != nullptr) {
      SAMYA_CHECK(queue_.empty() && !streams_->AnyAllocated());
      queue_.EnableMetaTracking();
    }
  }
  ScheduleOracle* oracle() const { return oracle_; }

  /// Stable pointer to the simulated clock, for out-of-loop readers like
  /// `Logger::SetThreadSimClock`. Valid for this environment's lifetime.
  const SimTime* now_ptr() const { return &now_; }

 private:
  void Invoke(uint32_t slot) {
    if (profiler_ == nullptr) {
      queue_.InvokeAndRecycle(slot);
    } else {
      const int64_t t0 = obs::EventLoopProfiler::NowNs();
      queue_.InvokeAndRecycle(slot);
      profiler_->AccountEvent(obs::EventLoopProfiler::NowNs() - t0);
    }
  }

  /// Oracle-mediated step (out of line; runs only with an oracle attached).
  bool OracleStep();

  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  uint32_t current_stream_ = 0;
  EventQueue queue_;
  StreamKeyTable own_streams_;
  StreamKeyTable* streams_ = &own_streams_;
  GlobalEventSink* global_sink_ = nullptr;
  Rng rng_;
  obs::EventLoopProfiler* profiler_ = nullptr;
  ScheduleOracle* oracle_ = nullptr;
  std::vector<EventQueue::PendingRef> pending_scratch_;
  std::vector<ScheduleCandidate> candidates_scratch_;
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_ENVIRONMENT_H_
