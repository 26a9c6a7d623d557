#include "sim/environment.h"

#include <gtest/gtest.h>

#include <vector>

namespace samya::sim {
namespace {

TEST(SimEnvironmentTest, TimeStartsAtZero) {
  SimEnvironment env(1);
  EXPECT_EQ(env.Now(), 0);
}

TEST(SimEnvironmentTest, EventsRunInTimeOrder) {
  SimEnvironment env(1);
  std::vector<int> order;
  env.Schedule(Millis(30), [&] { order.push_back(3); });
  env.Schedule(Millis(10), [&] { order.push_back(1); });
  env.Schedule(Millis(20), [&] { order.push_back(2); });
  env.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.Now(), Millis(30));
}

TEST(SimEnvironmentTest, SameTimeEventsRunFifo) {
  SimEnvironment env(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    env.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  env.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimEnvironmentTest, RunUntilStopsAtBoundary) {
  SimEnvironment env(1);
  int fired = 0;
  env.Schedule(Millis(10), [&] { ++fired; });
  env.Schedule(Millis(20), [&] { ++fired; });
  env.RunUntil(Millis(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(env.Now(), Millis(15));  // clock advances to the boundary
  env.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(SimEnvironmentTest, EventsCanScheduleEvents) {
  SimEnvironment env(1);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) env.Schedule(Millis(1), recurse);
  };
  env.Schedule(0, recurse);
  env.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(env.Now(), Millis(4));
}

TEST(SimEnvironmentTest, NegativeDelayClampsToNow) {
  SimEnvironment env(1);
  env.Schedule(Millis(10), [&] {
    env.Schedule(-Millis(5), [&] { EXPECT_EQ(env.Now(), Millis(10)); });
  });
  env.RunUntilIdle();
}

TEST(SimEnvironmentTest, CountsEvents) {
  SimEnvironment env(1);
  for (int i = 0; i < 7; ++i) env.Schedule(i, [] {});
  env.RunUntilIdle();
  EXPECT_EQ(env.events_executed(), 7u);
  EXPECT_EQ(env.pending_events(), 0u);
}

// A cancelled event leaves the queue: it never runs, never moves the clock,
// and is counted in neither `events_executed` nor `pending_events`.
TEST(SimEnvironmentTest, CancelledEventsAreNeitherRunNorCounted) {
  SimEnvironment env(1);
  int fired = 0;
  const uint64_t first = env.Schedule(Millis(10), [&] { ++fired; });
  env.Schedule(Millis(20), [&] { ++fired; });
  const uint64_t last = env.Schedule(Millis(30), [&] { ++fired; });
  EXPECT_EQ(env.pending_events(), 3u);
  EXPECT_TRUE(env.Cancel(first));
  EXPECT_TRUE(env.Cancel(last));
  EXPECT_FALSE(env.Cancel(first));
  EXPECT_EQ(env.pending_events(), 1u);
  env.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(env.events_executed(), 1u);
  EXPECT_EQ(env.pending_events(), 0u);
  EXPECT_EQ(env.Now(), Millis(20));
}

// A callback scheduled through ScheduleAtWithHandle is built knowing the
// handle the call returns, and can cancel a sibling by it.
TEST(SimEnvironmentTest, ScheduleAtWithHandleHandsTheCallbackItsHandle) {
  SimEnvironment env(1);
  uint64_t seen = 0;
  const uint64_t handle = env.ScheduleAtWithHandle(
      Millis(5), [&seen](uint64_t h) { return [&seen, h] { seen = h; }; });
  const uint64_t victim = env.Schedule(Millis(9), [] { ADD_FAILURE(); });
  env.Schedule(Millis(7), [&] { EXPECT_TRUE(env.Cancel(victim)); });
  env.RunUntilIdle();
  EXPECT_EQ(seen, handle);
  EXPECT_EQ(env.events_executed(), 2u);
}

TEST(SimEnvironmentTest, RunForAdvancesRelative) {
  SimEnvironment env(1);
  env.RunFor(Seconds(3));
  EXPECT_EQ(env.Now(), Seconds(3));
  env.RunFor(Seconds(2));
  EXPECT_EQ(env.Now(), Seconds(5));
}

}  // namespace
}  // namespace samya::sim
