#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"

namespace samya::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.Push(30, 0, [] {});
  q.Push(10, 1, [] {});
  q.Push(20, 2, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.NextTime(), 10);
  EXPECT_EQ(q.Pop().time, 10);
  EXPECT_EQ(q.Pop().time, 20);
  EXPECT_EQ(q.Pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakBySequence) {
  EventQueue q;
  for (uint64_t seq = 0; seq < 50; ++seq) q.Push(5, seq, [] {});
  for (uint64_t seq = 0; seq < 50; ++seq) {
    EXPECT_EQ(q.Pop().seq, seq);
  }
}

TEST(EventQueueTest, CallbacksSurviveHeapMoves) {
  EventQueue q;
  int sum = 0;
  for (int i = 1; i <= 10; ++i) {
    q.Push(100 - i, static_cast<uint64_t>(i), [&sum, i] { sum += i; });
  }
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(sum, 55);
}

// Regression test for the old std::priority_queue implementation, whose
// Pop() copied the closure out of top(). The counting functor proves the
// new heap never copies a callback: not on Push, not during sifts, not on
// Pop. (SimCallback is move-only, so a copy would also fail to compile —
// this asserts the runtime counts for the callable itself.)
TEST(EventQueueTest, PopMovesCallbacksWithoutCopying) {
  struct CountingFunctor {
    int* copies;
    int* moves;
    int* calls;
    CountingFunctor(int* c, int* m, int* k) : copies(c), moves(m), calls(k) {}
    CountingFunctor(const CountingFunctor& o)
        : copies(o.copies), moves(o.moves), calls(o.calls) {
      ++*copies;
    }
    CountingFunctor(CountingFunctor&& o) noexcept
        : copies(o.copies), moves(o.moves), calls(o.calls) {
      ++*moves;
    }
    void operator()() { ++*calls; }
  };

  int copies = 0, moves = 0, calls = 0;
  EventQueue q;
  // Reverse time order maximises sift traffic on push and pop.
  for (int i = 0; i < 64; ++i) {
    q.Push(64 - i, static_cast<uint64_t>(i),
           CountingFunctor(&copies, &moves, &calls));
  }
  while (!q.empty()) {
    Event e = q.Pop();
    e.fn();
  }
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(copies, 0);
  EXPECT_GT(moves, 0);
}

// Equal-time ordering must be a property of the (time, seq) key alone, not
// of slot numbers: after pops recycle slots through the free list, freshly
// pushed events reuse *lower* slot indices than older pending ones, so any
// accidental slot-order dependence would fire the recycled events early.
TEST(EventQueueTest, TiesBreakBySequenceAcrossSlotRecycling) {
  EventQueue q;
  // Phase 1: fill slots 1..20, then pop the ten earliest (recycling their
  // slots) while ten equal-time events stay pending in slots 11..20.
  for (uint64_t seq = 0; seq < 10; ++seq) q.Push(1, seq, [] {});
  for (uint64_t seq = 10; seq < 20; ++seq) q.Push(5, seq, [] {});
  for (uint64_t seq = 0; seq < 10; ++seq) EXPECT_EQ(q.Pop().seq, seq);
  // Phase 2: new equal-time events land in the recycled slots 10..1 with
  // *later* sequence numbers than the pending ones.
  for (uint64_t seq = 20; seq < 30; ++seq) q.Push(5, seq, [] {});
  for (uint64_t seq = 10; seq < 30; ++seq) {
    EXPECT_EQ(q.Pop().seq, seq);
  }
  EXPECT_TRUE(q.empty());
}

// The simulation loop's two-phase path: PopEntry leaves the callback parked,
// InvokeAndRecycle moves it out, runs it, and recycles the slot — including
// when the callback reentrantly pushes (which may grow the slot table).
TEST(EventQueueTest, PopEntryInvokeAndRecycleFiresInOrder) {
  EventQueue q;
  std::vector<int> order;
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    q.Push(7, seq++, [&order, i] { order.push_back(i); });
  }
  // The first callback reentrantly schedules two more equal-time events;
  // they must fire after every already-pending one.
  int extra = 0;
  q.Push(3, seq++, [&] {
    q.Push(7, seq++, [&extra] { ++extra; });
    q.Push(7, seq++, [&extra] { ++extra; });
  });
  while (!q.empty()) {
    const EventQueue::Popped p = q.PopEntry();
    q.InvokeAndRecycle(p.slot);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(extra, 2);
}

// Meta tracking + PopByKey: removing an entry from the middle of the heap
// (the oracle's non-FIFO choice) must leave the remaining events in exact
// (time, seq) order, across both sift directions and slot reuse.
TEST(EventQueueTest, PopByKeyPreservesHeapOrder) {
  Rng rng(31);
  EventQueue q;
  q.EnableMetaTracking();
  uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime t = rng.UniformInt(0, 50);
    if (i % 3 == 0) {
      q.Push(t, seq++, [] {});  // timer/internal: invisible to the oracle
    } else {
      q.PushMessage(t, seq++, [] {},
                    EventQueue::MsgMeta{static_cast<int32_t>(i % 5),
                                        static_cast<int32_t>(i % 7), 10});
    }
  }
  // Pull a handful of mid-heap messages by key, as OracleStep would.
  for (int round = 0; round < 20; ++round) {
    std::vector<EventQueue::PendingRef> pending;
    q.CollectMessagesUntil(25, &pending);
    if (pending.empty()) break;
    const EventQueue::PendingRef& pick =
        pending[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int>(pending.size()) - 1))];
    const EventQueue::Popped p = q.PopByKey(pick.key);
    EXPECT_EQ(p.seq, pick.seq);
    q.InvokeAndRecycle(p.slot);
    // Reuse the freed slot under meta tracking: the new push must carry its
    // own meta, not the removed message's.
    q.Push(60, seq++, [] {});
  }
  SimTime prev_time = -1;
  uint64_t prev_seq = 0;
  while (!q.empty()) {
    const Event e = q.Pop();
    ASSERT_GE(e.time, prev_time);
    if (e.time == prev_time) {
      ASSERT_GT(e.seq, prev_seq);
    }
    prev_time = e.time;
    prev_seq = e.seq;
  }
}

TEST(EventQueueTest, CollectMessagesSkipsTimersAndLateEvents) {
  EventQueue q;
  q.EnableMetaTracking();
  q.Push(10, 0, [] {});  // timer
  q.PushMessage(10, 1, [] {}, EventQueue::MsgMeta{1, 2, 10});
  q.PushMessage(15, 2, [] {}, EventQueue::MsgMeta{2, 3, 11});
  q.PushMessage(99, 3, [] {}, EventQueue::MsgMeta{3, 4, 12});
  std::vector<EventQueue::PendingRef> pending;
  q.CollectMessagesUntil(20, &pending);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].seq + pending[1].seq, 3u);  // seqs 1 and 2, any order
}

TEST(EventQueueTest, RandomizedOrderingProperty) {
  Rng rng(21);
  EventQueue q;
  uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    q.Push(rng.UniformInt(0, 500), seq++, [] {});
  }
  SimTime prev = -1;
  uint64_t prev_seq = 0;
  while (!q.empty()) {
    Event e = q.Pop();
    ASSERT_GE(e.time, prev);
    if (e.time == prev) {
      ASSERT_GT(e.seq, prev_seq);
    }
    prev = e.time;
    prev_seq = e.seq;
  }
}

// Cancel's edge cases, one at a time: the top entry and an interior entry
// leave at once, and a handle that is stale — its event popped, already
// cancelled, or its slot reused by a newer event — changes nothing.
TEST(EventQueueTest, CancelTopInteriorAndStaleHandles) {
  EventQueue q;
  const uint64_t top = q.Push(10, 1, [] {});
  const uint64_t interior = q.Push(30, 2, [] {});
  const uint64_t third = q.Push(20, 3, [] {});
  q.Push(40, 4, [] {});
  EXPECT_NE(top, 0u);

  EXPECT_TRUE(q.Cancel(top));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.NextTime(), 20);  // the dead top never shows
  EXPECT_EQ(q.NextSeq(), 3u);
  EXPECT_FALSE(q.Cancel(top));  // double cancel
  EXPECT_TRUE(q.Cancel(interior));
  EXPECT_EQ(q.size(), 2u);

  // Stale after pop.
  EXPECT_EQ(q.Pop().seq, 3u);
  EXPECT_FALSE(q.Cancel(third));

  // Stale after slot reuse: the freed slot goes to the next push, and the
  // old handle must not kill the newcomer.
  const uint64_t old = q.Push(50, 5, [] {});
  ASSERT_TRUE(q.Cancel(old));
  const uint64_t reused = q.Push(50, 6, [] {});
  EXPECT_EQ(reused & 0xffffff, old & 0xffffff);
  EXPECT_FALSE(q.Cancel(old));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().seq, 4u);
  EXPECT_EQ(q.Pop().seq, 6u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dead_keys(), 0u);
}

// Differential test: push, pop, PopByKey and Cancel, randomly interleaved,
// against an ordered std::set of (time, seq). Covers cancelling the top and
// interior entries, stale handles (after pop, after cancel, after slot
// reuse), double cancels, and bursts that cross the compaction threshold.
// The pop sequence, the callbacks that run, and `size()` must match the
// reference at every step.
TEST(EventQueueTest, CancelMatchesOrderedSetReference) {
  Rng rng(77);
  EventQueue q;
  q.EnableMetaTracking();
  std::set<std::pair<SimTime, uint64_t>> ref;
  struct Pending {
    SimTime time;
    uint64_t handle;
  };
  std::unordered_map<uint64_t, Pending> pending;  // seq -> entry
  std::vector<uint64_t> pending_seqs;             // for random picks
  std::vector<uint64_t> stale;                    // popped / cancelled
  uint64_t seq = 0;
  uint64_t fired = ~0ull;
  SimTime now = 0;
  size_t max_dead_seen = 0;
  int crossings = 0;  // cancels that crossed the compaction threshold

  auto push = [&] {
    const SimTime t = now + rng.UniformInt(0, 300);
    const uint64_t s = seq++;
    uint64_t h;
    if (rng.UniformInt(0, 1) == 0) {
      h = q.Push(t, s, [&fired, s] { fired = s; });
    } else {
      h = q.Reserve(s);
      q.PushReserved(h, t, [&fired, s] { fired = s; });
    }
    ref.emplace(t, s);
    pending[s] = Pending{t, h};
    pending_seqs.push_back(s);
  };
  auto forget = [&](uint64_t s) {
    stale.push_back(pending.at(s).handle);
    ref.erase({pending.at(s).time, s});
    pending.erase(s);
    for (size_t i = 0; i < pending_seqs.size(); ++i) {
      if (pending_seqs[i] == s) {
        pending_seqs[i] = pending_seqs.back();
        pending_seqs.pop_back();
        break;
      }
    }
  };
  auto cancel = [&](uint64_t s) {
    const uint64_t h = pending.at(s).handle;
    const size_t dead_before = q.dead_keys();
    ASSERT_TRUE(q.Cancel(h));
    forget(s);
    // Without compaction this cancel would leave dead keys in the majority.
    const size_t dead_uncompacted = dead_before + 1;
    if (2 * dead_uncompacted > q.size() + dead_uncompacted) ++crossings;
    ASSERT_LE(q.dead_keys(), q.size());  // ...so Cancel compacted
    max_dead_seen = std::max(max_dead_seen, q.dead_keys());
  };
  auto pop = [&] {
    const auto expect = *ref.begin();
    ASSERT_EQ(q.NextTime(), expect.first);
    ASSERT_EQ(q.NextSeq(), expect.second);
    const EventQueue::Popped p = q.PopEntry();
    ASSERT_EQ(p.time, expect.first);
    ASSERT_EQ(p.seq, expect.second);
    q.InvokeAndRecycle(p.slot);
    ASSERT_EQ(fired, expect.second);
    now = p.time;
    forget(p.seq);
  };

  for (int step = 0; step < 40000; ++step) {
    if (step % 5000 == 2500) {
      // Burst: a wave of timers, most of them cancelled again before any
      // fires — the request path's pattern, and enough dead keys to cross
      // the compaction threshold.
      for (int i = 0; i < 400; ++i) push();
      for (int i = 0; i < 360 && !pending_seqs.empty(); ++i) {
        cancel(pending_seqs[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(pending_seqs.size()) - 1))]);
      }
    }
    const int op = ref.empty() ? 0 : rng.UniformInt(0, 99);
    if (op < 36) {
      push();
    } else if (op < 60) {
      pop();
    } else if (op < 80) {  // interior (or, by chance, top) cancel
      cancel(pending_seqs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(pending_seqs.size()) - 1))]);
    } else if (op < 85) {  // cancel the top
      cancel(ref.begin()->second);
    } else if (op < 92) {  // stale handle: popped, cancelled or slot reused
      if (!stale.empty()) {
        const uint64_t h = stale[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(stale.size()) - 1))];
        ASSERT_FALSE(q.Cancel(h));
      }
    } else if (op < 95) {  // double cancel
      const uint64_t s = pending_seqs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(pending_seqs.size()) - 1))];
      const uint64_t h = pending.at(s).handle;
      cancel(s);
      ASSERT_FALSE(q.Cancel(h));
    } else {  // PopByKey, as the schedule oracle does
      std::vector<EventQueue::PendingRef> refs;
      q.CollectMessagesUntil(ref.begin()->first + 100, &refs);
      for (const EventQueue::PendingRef& r : refs) {
        ASSERT_TRUE(pending.count(r.seq)) << "a dead key surfaced";
      }
      // Only PushMessage'd events are candidates; push one so there is one.
      const SimTime t = ref.begin()->first;
      const uint64_t s = seq++;
      const uint64_t h = q.PushMessage(t, s, [&fired, s] { fired = s; },
                                       EventQueue::MsgMeta{1, 2, 3});
      ref.emplace(t, s);
      pending[s] = Pending{t, h};
      pending_seqs.push_back(s);
      refs.clear();
      q.CollectMessagesUntil(t, &refs);
      ASSERT_FALSE(refs.empty());
      const EventQueue::Popped p = q.PopByKey(refs.back().key);
      ASSERT_TRUE(ref.count({p.time, p.seq}));
      q.InvokeAndRecycle(p.slot);
      ASSERT_EQ(fired, p.seq);
      ASSERT_EQ(pending.at(p.seq).handle, refs.back().key);
      forget(p.seq);
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!ref.empty()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(crossings, 0);
  EXPECT_GT(max_dead_seen, 10u);
}

}  // namespace
}  // namespace samya::sim
