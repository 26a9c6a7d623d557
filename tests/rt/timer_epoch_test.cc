// Satellite of the runtime-seam PR: the stale-timer epoch guard must behave
// identically on both backends. Cancel-vs-fire and crash/recover straggler
// timers run the same scenario against sim::Cluster (virtual time) and
// rt::RealCluster (real threads, wall-clock timers); both go through the
// shared `Runtime::TimerShouldFire` guard.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "rt/node.h"
#include "rt/real_cluster.h"
#include "sim/cluster.h"

namespace samya::rt {
namespace {

class TimerProbe : public Node {
 public:
  TimerProbe(NodeId id, Region region) : Node(id, region) {}

  void HandleMessage(NodeId, uint32_t, BufferReader&) override {}
  void HandleTimer(uint64_t token) override { fired_.push_back(token); }
  void HandleCrash() override {}

  void Arm(Duration delay, uint64_t token) {
    ids_[token] = SetTimer(delay, token);
  }
  void Cancel(uint64_t token) { CancelTimer(ids_[token]); }
  uint64_t timer_id(uint64_t token) { return ids_[token]; }
  const std::vector<uint64_t>& fired() const { return fired_; }

 private:
  std::map<uint64_t, uint64_t> ids_;
  std::vector<uint64_t> fired_;
};

TEST(TimerEpochTest, SimCancelAndCrashGuards) {
  sim::Cluster cluster(7);
  auto* probe = cluster.AddNode<TimerProbe>(sim::kPaperRegions[0]);
  cluster.StartAll();

  // Cancel wins over a pending fire, and the fire event leaves the queue:
  // it is never popped, so it is not counted as an executed event.
  probe->Arm(Millis(50), 1);
  EXPECT_EQ(cluster.env().pending_events(), 1u);
  probe->Cancel(1);
  EXPECT_EQ(cluster.env().pending_events(), 0u);
  cluster.RunUntil(Millis(200));
  EXPECT_TRUE(probe->fired().empty());
  EXPECT_EQ(cluster.env().events_executed(), 0u);

  // A timer armed before a crash is a straggler: its fire event still sits
  // in the queue after recovery, but the epoch guard must swallow it.
  // Cancelling it after the crash is a no-op (the crash already disarmed
  // it); the event still pops, dead, through the guard.
  probe->Arm(Millis(50), 2);
  cluster.net().Crash(probe->id());
  cluster.net().Recover(probe->id());
  probe->Cancel(2);
  EXPECT_EQ(cluster.env().pending_events(), 1u);
  cluster.RunUntil(Millis(400));
  EXPECT_TRUE(probe->fired().empty());
  EXPECT_EQ(cluster.env().events_executed(), 1u);

  // A fresh timer armed after recovery fires normally.
  probe->Arm(Millis(50), 3);
  cluster.RunUntil(Millis(600));
  EXPECT_EQ(probe->fired(), std::vector<uint64_t>({3}));

  // Cancelling an id that already fired is a no-op, and must not kill the
  // newer timer that reuses its fire event's queue slot.
  probe->Arm(Millis(50), 4);
  // Same slot: the low 24 bits of the handle.
  EXPECT_EQ(probe->timer_id(4) & 0xffffff, probe->timer_id(3) & 0xffffff);
  probe->Cancel(3);
  EXPECT_EQ(cluster.env().pending_events(), 1u);
  cluster.RunUntil(Millis(800));
  EXPECT_EQ(probe->fired(), std::vector<uint64_t>({3, 4}));
  EXPECT_EQ(cluster.env().events_executed(), 3u);
}

TEST(TimerEpochTest, RealCancelAndCrashGuards) {
  RealCluster cluster;
  auto* probe = cluster.AddNode<TimerProbe>(kPaperRegions[0]);
  cluster.Start();

  auto fired = [&] {
    std::vector<uint64_t> out;
    cluster.Post(probe->id(), [&out, probe] { out = probe->fired(); });
    cluster.Barrier();
    return out;
  };

  // Cancel wins over a pending fire (arm + cancel run atomically on the
  // probe's own loop).
  cluster.Post(probe->id(), [probe] {
    probe->Arm(Millis(30), 1);
    probe->Cancel(1);
  });
  cluster.RunFor(Millis(150));
  EXPECT_TRUE(fired().empty());

  // Straggler across crash/recover: the timer is due long after the
  // crash+recover cycle below completes, so its epoch is stale by the time
  // it would fire and the shared guard must swallow it.
  cluster.Post(probe->id(), [probe] { probe->Arm(Millis(500), 2); });
  cluster.Barrier();
  cluster.Crash(probe->id());
  cluster.Recover(probe->id());
  cluster.Barrier();
  cluster.RunFor(Millis(900));
  EXPECT_TRUE(fired().empty());

  // A fresh timer armed after recovery fires normally.
  cluster.Post(probe->id(), [probe] { probe->Arm(Millis(30), 3); });
  std::vector<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {  // up to ~2s of grace for a loaded machine
    seen = fired();
    if (!seen.empty()) break;
    cluster.RunFor(Millis(10));
  }
  EXPECT_EQ(seen, std::vector<uint64_t>({3}));
  cluster.Shutdown();
}

}  // namespace
}  // namespace samya::rt
