// Wake-path tests for rt::RealCluster's event loop. A loop sleeps in ppoll
// until its next timer or netem deadline, and indefinitely when it owns
// none; only a datagram or a foreign-thread Wake (Post, Crash, Recover,
// Shutdown) ends that sleep early. These run in rt_test, so the TSan job
// covers the cross-thread eventfd path.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/node.h"
#include "rt/real_cluster.h"

namespace samya::rt {
namespace {

/// Aborts the process unless destroyed within `limit`. A lost wakeup makes
/// Barrier or Shutdown block forever; a crash that names the step is a
/// better report than a suite stalled until the ctest timeout.
class HangGuard {
 public:
  HangGuard(const char* what, std::chrono::seconds limit)
      : thread_([this, what, limit] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return done_; })) {
            std::fprintf(stderr, "HangGuard: %s still blocked after %llds\n",
                         what, static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}

  ~HangGuard() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  HangGuard(const HangGuard&) = delete;
  HangGuard& operator=(const HangGuard&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it reads exist
};

/// Arms no timers and sends nothing, so its loop never has a deadline.
class IdleNode : public Node {
 public:
  IdleNode(NodeId id, Region region) : Node(id, region) {}
  void HandleMessage(NodeId, uint32_t, BufferReader&) override {}
};

TEST(RealWakeTest, PostWakesLoopsThatOwnNoDeadline) {
  HangGuard guard("Post/Barrier/Shutdown on idle loops",
                  std::chrono::seconds(30));
  RealCluster cluster;
  constexpr int kNodes = 3;
  std::vector<IdleNode*> nodes;
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(
        cluster.AddNode<IdleNode>(kPaperRegions[static_cast<size_t>(i)]));
  }
  cluster.Start();
  cluster.Barrier();  // every Start() ran; no loop owns a deadline now
  cluster.RunFor(Millis(20));

  for (int round = 0; round < 20; ++round) {
    std::vector<int> ran(kNodes, 0);
    for (IdleNode* n : nodes) {
      cluster.Post(n->id(), [&ran, n] { ran[static_cast<size_t>(n->id())] = 1; });
    }
    cluster.Barrier();
    EXPECT_EQ(ran, std::vector<int>(kNodes, 1)) << "round " << round;
  }

  // Crash and Recover reach the loop through Post.
  cluster.Crash(nodes[0]->id());
  bool alive = true;
  cluster.Post(nodes[0]->id(), [&alive, n = nodes[0]] { alive = n->alive(); });
  cluster.Barrier();
  EXPECT_FALSE(alive);
  cluster.Recover(nodes[0]->id());
  cluster.Post(nodes[0]->id(), [&alive, n = nodes[0]] { alive = n->alive(); });
  cluster.Barrier();
  EXPECT_TRUE(alive);

  cluster.RunFor(Millis(20));  // let every loop fall back asleep
  cluster.Shutdown();
}

/// Records, per token, the node clock when the timer was armed and the
/// cluster's fresh monotonic clock when it fired.
class DeadlineProbe : public Node {
 public:
  DeadlineProbe(NodeId id, Region region, const RealCluster* cluster)
      : Node(id, region), cluster_(cluster) {}

  void HandleMessage(NodeId, uint32_t, BufferReader&) override {}
  void HandleTimer(uint64_t token) override {
    fired_at_[token] = cluster_->NowUs();
  }

  void Arm(const std::vector<Duration>& delays) {
    armed_at_ = Now();  // the clock SetTimer measures `delay` from
    fired_at_.assign(delays.size(), -1);
    for (size_t i = 0; i < delays.size(); ++i) SetTimer(delays[i], i);
  }

  SimTime armed_at() const { return armed_at_; }
  const std::vector<SimTime>& fired_at() const { return fired_at_; }

 private:
  const RealCluster* cluster_;
  SimTime armed_at_ = 0;
  std::vector<SimTime> fired_at_;
};

TEST(RealWakeTest, TimersNeverFireBeforeTheirDeadline) {
  HangGuard guard("timer deadline rounds", std::chrono::seconds(60));
  RealCluster cluster;
  auto* probe =
      cluster.AddNode<DeadlineProbe>(kPaperRegions[0], &cluster);
  cluster.Start();
  // Sub-millisecond delays catch µs or ms truncation in the ppoll timeout.
  const std::vector<Duration> delays = {0, 50, 300, Millis(2)};
  // Nothing but the timers' own deadlines wakes the loop during a round, so
  // a timeout computed too long shows up as a late fire.
  const Duration kRound = Millis(100);
  const Duration kMaxLate = Millis(50);

  for (int round = 0; round < 5; ++round) {
    cluster.Post(probe->id(), [probe, &delays] { probe->Arm(delays); });
    cluster.RunFor(kRound);
    SimTime armed_at = 0;
    std::vector<SimTime> fired_at;
    cluster.Post(probe->id(), [&armed_at, &fired_at, probe] {
      armed_at = probe->armed_at();
      fired_at = probe->fired_at();
    });
    cluster.Barrier();
    ASSERT_EQ(fired_at.size(), delays.size());
    for (size_t i = 0; i < delays.size(); ++i) {
      ASSERT_GE(fired_at[i], 0) << "round " << round << ": delay "
                                << delays[i] << " us never fired";
      EXPECT_GE(fired_at[i], armed_at + delays[i])
          << "round " << round << ": delay " << delays[i] << " us fired early";
      EXPECT_LT(fired_at[i], armed_at + delays[i] + kMaxLate)
          << "round " << round << ": delay " << delays[i] << " us fired "
          << fired_at[i] - armed_at << " us after arming";
    }
  }
  cluster.Shutdown();
}

}  // namespace
}  // namespace samya::rt
