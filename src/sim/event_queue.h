#ifndef SAMYA_SIM_EVENT_QUEUE_H_
#define SAMYA_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/macros.h"
#include "common/time.h"

namespace samya::sim {

/// Callback type for everything scheduled on the simulation loop. Move-only
/// with 48 bytes of inline storage: every closure the simulator's hot path
/// schedules (message delivery, timers, client arrivals) fits without a heap
/// allocation.
using SimCallback = InlineFunction<void()>;

/// A scheduled callback. Events at equal times fire in scheduling order
/// (FIFO by sequence number), which keeps runs deterministic.
struct Event {
  SimTime time = 0;
  uint64_t seq = 0;
  SimCallback fn;
};

/// \brief Min-heap of events ordered by (time, seq).
///
/// The heap itself holds only 16-byte POD keys — `{time, seq<<24|slot}` —
/// while the callbacks live in a parallel slot table that never moves.
/// Sift-downs, the dominant operation of a discrete-event loop, therefore
/// shuffle trivially-copyable keys (four per cache line) instead of ~90-byte
/// move-only events, and never touch a callback's move constructor. Freed
/// slots are recycled via a free list, so the steady-state pop-push cadence
/// allocates nothing.
///
/// Layout is a flat 4-ary heap rather than `std::priority_queue`'s binary
/// heap: half the tree depth, and the four children of a node share a cache
/// line. Sifts use hole-percolation — one move per level instead of a
/// three-move swap.
///
/// The simulation loop uses the two-phase `PopEntry` + `InvokeAndRecycle`
/// path; `Pop` (move the event out) remains for callers that want to hold
/// the event. Either way a callback is moved exactly twice in its lifetime:
/// into its slot at `Push`, out of it just before it runs.
///
/// Cancellation. `Push` returns the event's *handle*, its packed heap key
/// `seq << 24 | slot`. `Cancel(handle)` destroys the callback, recycles the
/// slot at once and leaves a dead key in the heap; a key is dead when its
/// slot no longer holds that exact key. Dead keys at the top are dropped
/// immediately, so `NextTime`, `NextSeq`, `empty` and the pops never see
/// one, and when dead keys outnumber live ones the heap is compacted and
/// re-heapified. Removing keys does not change the (time, seq) order of
/// the rest. A handle validates itself: after its event was popped or
/// cancelled, or its slot was reused, the slot holds a different key and
/// `Cancel` is a no-op. Slot 0 is never allocated, so no handle is 0.
///
/// The far list. Most long timers never fire: every request arms a client
/// timeout and an app-manager timeout of a second or more and cancels both
/// when the reply comes. An event due after `near_limit_` therefore skips
/// the heap and is appended to an unsorted far list; cancelling it only
/// frees its slot. When the heap runs dry, `Refill` drops the far list's
/// dead keys, finds its earliest live event, sets the limit to that time
/// plus `kFarHorizon` and heapifies every far event due before it. Every
/// heap key is due no later than the limit and every far key after it, so
/// the heap's top is still the global `(time, seq)` minimum: the pop order
/// is exactly that of one heap. With meta tracking on (the schedule
/// oracle), nothing goes far.
class EventQueue {
 public:
  /// Message identity carried per slot when meta tracking is on (schedule
  /// exploration); `from < 0` marks a non-message (timer/internal) event.
  struct MsgMeta {
    int32_t from = -1;
    int32_t to = -1;
    uint32_t type = 0;
  };

  /// Width of the window that `Refill` moves from the far list into the
  /// heap. Message deliveries (one-way region latencies plus jitter) nearly
  /// all stay in the heap; the client's 3 s and the app manager's 1.5 s
  /// timeouts go far.
  static constexpr Duration kFarHorizon = Millis(500);

  EventQueue() : slots_(1), slot_keys_(1, 0) {}  // slot 0: never allocated

  /// `seq` must be < 2^40 and unique per queue; ties in `time` fire in
  /// `seq` order. Returns the event's handle (see `Cancel`).
  uint64_t Push(SimTime time, uint64_t seq, SimCallback&& fn) {
    const uint64_t handle = Reserve(seq);
    PushReserved(handle, time, std::move(fn));
    return handle;
  }

  /// Push tagged as a message delivery (requires `EnableMetaTracking`); the
  /// schedule oracle may reorder it against other deliveries in its window.
  uint64_t PushMessage(SimTime time, uint64_t seq, SimCallback&& fn,
                       MsgMeta meta) {
    SAMYA_CHECK(track_meta_);
    const uint64_t handle = Reserve(seq);
    PushReserved(handle, time, std::move(fn));
    metas_[SlotOf(handle)] = meta;
    return handle;
  }

  /// First half of a push whose callback must know its own handle (a timer
  /// checks it against its node's armed set when it fires): allocates the
  /// slot and returns the handle. `PushReserved` must follow before any
  /// other push.
  uint64_t Reserve(uint64_t seq) {
    SAMYA_CHECK(seq < (1ull << (64 - kSlotBits)));
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      SAMYA_CHECK(slot < kSlotMask);  // the slot must fit in kSlotBits
      slots_.emplace_back();
      slot_keys_.push_back(0);
      if (track_meta_) metas_.emplace_back();
    }
    return (seq << kSlotBits) | slot;
  }

  /// Second half: parks `fn` in the reserved slot and pushes its key.
  void PushReserved(uint64_t handle, SimTime time, SimCallback&& fn) {
    const uint32_t slot = SlotOf(handle);
    slots_[slot] = std::move(fn);
    slot_keys_[slot] = handle;
    if (track_meta_) metas_[slot] = MsgMeta{};  // mark non-message
    ++live_;
    if (time > near_limit_) {
      far_.push_back(Entry{time, handle});
      if (heap_.empty()) Refill();
      return;
    }
    heap_.emplace_back();  // open a hole at the end
    SiftUp(heap_.size() - 1, Entry{time, handle});
  }

  /// Removes a pending event by handle: it is never popped, run or counted.
  /// Returns false, doing nothing, for a stale handle (already popped,
  /// already cancelled, slot since reused) or one this queue never issued.
  bool Cancel(uint64_t handle) {
    const uint32_t slot = SlotOf(handle);
    if (slot >= slot_keys_.size() || slot_keys_[slot] != handle) return false;
    slot_keys_[slot] = 0;
    slots_[slot] = SimCallback();  // release the captures now
    free_slots_.push_back(slot);
    --live_;
    RestoreTop();
    if (dead_keys() > (heap_.size() + far_.size()) / 2) Compact();
    return true;
  }

  /// Turns on per-slot message metadata. Off (the default), `Push` does no
  /// extra work; on, each push writes one 12-byte meta record. Enable before
  /// the first push of a run (the schedule oracle needs every slot tagged).
  /// It also empties the far list into the heap and keeps it empty: the
  /// oracle's scans see the heap alone.
  void EnableMetaTracking() {
    track_meta_ = true;
    metas_.resize(slots_.size());
    near_limit_ = kNever;
    for (const Entry& e : far_) {
      if (!Dead(e)) heap_.push_back(e);
    }
    far_.clear();
    Heapify();
  }
  bool meta_tracking() const { return track_meta_; }

  bool empty() const { return heap_.empty(); }  // the top is always live
  /// Live events only; cancelled ones are not counted.
  size_t size() const { return live_; }
  /// Cancelled keys still in the heap or the far list. `Cancel` compacts
  /// both whenever they would outnumber the live ones.
  size_t dead_keys() const { return heap_.size() + far_.size() - live_; }
  /// Keys, live or dead, waiting in the far list (test hook).
  size_t far_keys() const { return far_.size(); }

  SimTime NextTime() const {
    SAMYA_CHECK(!heap_.empty());
    return heap_[0].time;
  }

  uint64_t NextSeq() const {
    SAMYA_CHECK(!heap_.empty());
    return heap_[0].key >> kSlotBits;
  }

  /// Removes the top event and moves it out.
  Event Pop() {
    const Popped p = PopEntry();
    Event out{p.time, p.seq, std::move(slots_[p.slot])};
    free_slots_.push_back(p.slot);
    return out;
  }

  /// First phase of a pop: removes the top entry from the heap but leaves
  /// the callback parked in its slot. The caller must follow up with
  /// `InvokeAndRecycle(slot)` (or move `slots_` content out itself).
  struct Popped {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  Popped PopEntry() {
    SAMYA_CHECK(!heap_.empty());
    const Entry top = heap_[0];
    RemoveTop();
    slot_keys_[SlotOf(top.key)] = 0;  // popped: its handle is stale now
    --live_;
    RestoreTop();
    return Popped{top.time, top.key >> kSlotBits, SlotOf(top.key)};
  }

  /// Second phase: moves the parked callback out, recycles the slot, and
  /// runs it. The move to a local is mandatory, not an optimization miss:
  /// a reentrant `Push` from inside the callback may grow `slots_` and
  /// relocate it, so the callable must not execute inside the table.
  void InvokeAndRecycle(uint32_t slot) {
    SimCallback fn = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    fn();
  }

  // --- Schedule-oracle support (cold paths; never touched by the default
  // --- FIFO loop) ----------------------------------------------------------

  /// A pending entry surfaced to the schedule oracle.
  struct PendingRef {
    SimTime time;
    uint64_t seq;
    uint64_t key;  ///< packed (seq << kSlotBits) | slot, for PopByKey
    MsgMeta meta;
  };

  /// Appends every pending *message* event with `time <= horizon` to `out`
  /// (unsorted; linear scan of the flat heap array). Requires meta tracking.
  void CollectMessagesUntil(SimTime horizon,
                            std::vector<PendingRef>* out) const {
    SAMYA_CHECK(track_meta_);
    for (const Entry& e : heap_) {
      if (e.time > horizon || Dead(e)) continue;
      const uint32_t slot = SlotOf(e.key);
      const MsgMeta& m = metas_[slot];
      if (m.from < 0) continue;
      out->push_back(PendingRef{e.time, e.key >> kSlotBits, e.key, m});
    }
  }

  /// Removes the entry with packed key `key` (from a `PendingRef`) wherever
  /// it sits in the heap; the callback stays parked for `InvokeAndRecycle`.
  /// Linear search + one sift — O(n), fine for oracle-driven runs.
  Popped PopByKey(uint64_t key) {
    for (size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].key != key) continue;
      const Entry found = heap_[i];
      const Entry last = heap_.back();
      heap_.pop_back();
      if (i < heap_.size()) {
        // The hole may need to move either way relative to `last`.
        if (i > 0 && Before(last, heap_[(i - 1) / kArity])) {
          SiftUp(i, last);
        } else {
          SiftDown(i, last);
        }
      }
      slot_keys_[SlotOf(found.key)] = 0;
      --live_;
      RestoreTop();
      return Popped{found.time, found.key >> kSlotBits, SlotOf(found.key)};
    }
    SAMYA_CHECK(false);  // key not pending — oracle/driver bug
    return Popped{};
  }

 private:
  static constexpr size_t kArity = 4;
  static constexpr unsigned kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr SimTime kNever = INT64_MAX;

  /// Heap key: everything ordering needs, nothing that is expensive to
  /// move. `key` packs (seq, slot); comparing raw `key`s compares seqs,
  /// because seqs are unique.
  struct Entry {
    SimTime time;
    uint64_t key;
  };

  static bool Before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  static uint32_t SlotOf(uint64_t key) {
    return static_cast<uint32_t>(key & kSlotMask);
  }

  /// A cancelled event's key: its slot was released and holds 0 or a newer
  /// event's key (seqs are unique, so never this one).
  bool Dead(const Entry& e) const {
    return slot_keys_[SlotOf(e.key)] != e.key;
  }

  /// Bottom-up pop: the hole left by the top walks down to a leaf along
  /// the smaller children, then the last key sifts up from there. The last
  /// key nearly always belongs near the bottom, so this saves the compare
  /// against it at every level that a plain sift-down makes.
  void RemoveTop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t i = 0;
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t end = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    SiftUp(i, last);
  }

  /// Restores the invariants that the top key is live and that the heap is
  /// empty only when no live event is left.
  void RestoreTop() {
    while (!heap_.empty() && Dead(heap_[0])) RemoveTop();
    if (heap_.empty() && !far_.empty()) Refill();
  }

  /// Moves the far events due within `kFarHorizon` of the earliest one into
  /// the (empty) heap and drops the far list's dead keys.
  void Refill() {
    size_t n = 0;
    SimTime earliest = kNever;
    for (const Entry& e : far_) {
      if (Dead(e)) continue;
      far_[n++] = e;
      if (e.time < earliest) earliest = e.time;
    }
    far_.resize(n);
    if (n == 0) return;
    near_limit_ = earliest > kNever - kFarHorizon ? kNever
                                                   : earliest + kFarHorizon - 1;
    size_t kept = 0;
    for (const Entry& e : far_) {
      if (e.time <= near_limit_) {
        heap_.push_back(e);
      } else {
        far_[kept++] = e;
      }
    }
    far_.resize(kept);
    Heapify();
  }

  /// Drops every dead key from the heap and the far list, and re-heapifies
  /// if the heap lost any.
  void Compact() {
    size_t n = 0;
    for (const Entry& e : heap_) {
      if (!Dead(e)) heap_[n++] = e;
    }
    const bool shrunk = n < heap_.size();
    heap_.resize(n);
    if (shrunk) Heapify();
    n = 0;
    for (const Entry& e : far_) {
      if (!Dead(e)) far_[n++] = e;
    }
    far_.resize(n);
  }

  /// Restores the heap order over all of `heap_`, bottom-up (Floyd).
  void Heapify() {
    const size_t n = heap_.size();
    if (n < 2) return;
    for (size_t i = (n - 2) / kArity + 1; i-- > 0;) SiftDown(i, heap_[i]);
  }

  /// Moves `e` toward the root from the hole at `i`.
  void SiftUp(size_t i, Entry e) {
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Moves `e` toward the leaves from the hole at `i`.
  void SiftDown(size_t i, Entry e) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t end = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;  ///< keys due at or before near_limit_
  std::vector<Entry> far_;   ///< unsorted keys due after near_limit_
  SimTime near_limit_ = kFarHorizon - 1;
  size_t live_ = 0;  ///< pending events: live keys in heap_ and far_
  std::vector<SimCallback> slots_;
  /// Parallel to slots_: the key of the pending event parked in the slot,
  /// 0 once it is popped or cancelled.
  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> free_slots_;
  bool track_meta_ = false;
  std::vector<MsgMeta> metas_;  ///< parallel to slots_ when track_meta_
};

}  // namespace samya::sim

#endif  // SAMYA_SIM_EVENT_QUEUE_H_
