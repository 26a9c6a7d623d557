// Receiver-side netem on rt::RealCluster: a datagram goes on the wire at
// once, stamped with its due instant, and the receiving loop holds it until
// then. With jitter and tail off, every latency is exactly the model's
// Base, so these tests can pin the hold: no delivery earlier than Base
// minus kDeliveryWindow, (due, arrival) delivery order, the alive check at
// delivery, and one delivery per duplicate copy. They run in rt_test, so
// the TSan job covers the hold path too.

#include <gtest/gtest.h>

#include <vector>

#include "rt/node.h"
#include "rt/real_cluster.h"

namespace samya::rt {
namespace {

constexpr Region kNear = Region::kUsWest1;
constexpr Region kFar = Region::kAsiaEast2;  // 75 ms one way from kNear

/// Sends empty messages on request and records every delivery with the
/// cluster's fresh clock.
class HoldProbe : public Node {
 public:
  struct Delivery {
    NodeId from = kInvalidNode;
    uint32_t type = 0;
    SimTime at = 0;
  };

  HoldProbe(NodeId id, Region region, const RealCluster* cluster)
      : Node(id, region), cluster_(cluster) {}

  void HandleMessage(NodeId from, uint32_t type, BufferReader&) override {
    deliveries_.push_back({from, type, cluster_->NowUs()});
  }

  /// Sends an empty message and returns the clock its due is drawn from.
  SimTime SendEmpty(NodeId to, uint32_t type) {
    Send(to, type, nullptr, 0);
    return Now();
  }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  const RealCluster* cluster_;
  std::vector<Delivery> deliveries_;
};

NetemConfig ExactLatency() {
  NetemConfig config;
  config.model.set_jitter_fraction(0);
  config.model.set_tail_mean(0);
  return config;
}

/// Runs `fn` on `node`'s loop and returns its result once it has run.
template <typename Fn>
auto OnLoop(RealCluster& cluster, HoldProbe* node, Fn fn) {
  decltype(fn()) out{};
  cluster.Post(node->id(), [&out, &fn] { out = fn(); });
  cluster.Barrier();
  return out;
}

std::vector<HoldProbe::Delivery> DeliveriesOf(RealCluster& cluster,
                                              HoldProbe* node) {
  return OnLoop(cluster, node, [node] { return node->deliveries(); });
}

TEST(NetemHoldTest, DeliversInDueOrderNeverBeforeTheWindow) {
  const NetemConfig config = ExactLatency();
  RealCluster cluster(config);
  auto* a = cluster.AddNode<HoldProbe>(kNear, &cluster);
  auto* b = cluster.AddNode<HoldProbe>(kFar, &cluster);
  cluster.Start();
  cluster.Barrier();

  // Three sends a -> b share one due; b's later self-send reaches b's socket
  // after them but is due long before them.
  const SimTime far_sent = OnLoop(cluster, a, [a, b] {
    const SimTime at = a->SendEmpty(b->id(), 1);
    a->SendEmpty(b->id(), 2);
    a->SendEmpty(b->id(), 3);
    return at;
  });
  cluster.RunFor(Millis(5));
  const SimTime self_sent =
      OnLoop(cluster, b, [b] { return b->SendEmpty(b->id(), 4); });
  const Duration far = config.model.Base(kNear, kFar);
  const Duration self = config.model.Base(kFar, kFar);
  ASSERT_LT(self_sent + self, far_sent + far);
  cluster.RunFor(far + Millis(50));

  const std::vector<HoldProbe::Delivery> got = DeliveriesOf(cluster, b);
  ASSERT_EQ(got.size(), 4u);
  const std::vector<uint32_t> want_order = {4, 1, 2, 3};
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want_order[i]) << "delivery " << i;
    const SimTime due =
        got[i].type == 4 ? self_sent + self : far_sent + far;
    EXPECT_GE(got[i].at, due - kDeliveryWindow)
        << "type " << got[i].type << " delivered " << due - got[i].at
        << " us before its due";
  }
  cluster.Shutdown();
  EXPECT_EQ(cluster.stats().messages_delivered, 4u);
  EXPECT_EQ(cluster.stats().frames_rejected, 0u);
}

TEST(NetemHoldTest, AliveIsCheckedAtDeliveryNotArrival) {
  const NetemConfig config = ExactLatency();
  RealCluster cluster(config);
  auto* a = cluster.AddNode<HoldProbe>(kNear, &cluster);
  auto* b = cluster.AddNode<HoldProbe>(kFar, &cluster);
  cluster.Start();
  cluster.Barrier();
  const Duration far = config.model.Base(kNear, kFar);

  // Type 1 arrives and is held, then b crashes and is still down at the due.
  OnLoop(cluster, a, [a, b] { return a->SendEmpty(b->id(), 1); });
  cluster.RunFor(Millis(5));
  cluster.Crash(b->id());
  cluster.Barrier();
  cluster.RunFor(far + Millis(50));
  EXPECT_TRUE(DeliveriesOf(cluster, b).empty());
  cluster.Recover(b->id());

  // Type 2 is held across a crash, but b recovers before its due.
  OnLoop(cluster, a, [a, b] { return a->SendEmpty(b->id(), 2); });
  cluster.RunFor(Millis(5));
  cluster.Crash(b->id());
  cluster.Recover(b->id());
  cluster.Barrier();
  cluster.RunFor(far + Millis(50));

  const std::vector<HoldProbe::Delivery> got = DeliveriesOf(cluster, b);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, 2u);
  EXPECT_EQ(got[0].from, a->id());
  cluster.Shutdown();
  const RealNetStats stats = cluster.stats();
  EXPECT_EQ(stats.messages_dropped_crashed, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
}

TEST(NetemHoldTest, EachDuplicateCopyIsDeliveredOnceAtItsDue) {
  NetemConfig config = ExactLatency();
  config.duplicate_rate = 1.0;
  RealCluster cluster(config);
  auto* a = cluster.AddNode<HoldProbe>(kNear, &cluster);
  auto* b = cluster.AddNode<HoldProbe>(kFar, &cluster);
  cluster.Start();
  cluster.Barrier();
  const Duration far = config.model.Base(kNear, kFar);

  constexpr uint32_t kSends = 5;
  std::vector<SimTime> sent_at;
  for (uint32_t type = 0; type < kSends; ++type) {
    sent_at.push_back(
        OnLoop(cluster, a, [a, b, type] { return a->SendEmpty(b->id(), type); }));
    cluster.RunFor(Millis(2));
  }
  cluster.RunFor(far + Millis(50));

  const std::vector<HoldProbe::Delivery> got = DeliveriesOf(cluster, b);
  std::vector<int> copies(kSends, 0);
  for (const HoldProbe::Delivery& d : got) {
    ASSERT_LT(d.type, kSends);
    ++copies[d.type];
    EXPECT_GE(d.at, sent_at[d.type] + far - kDeliveryWindow)
        << "type " << d.type << " delivered early";
  }
  EXPECT_EQ(copies, std::vector<int>(kSends, 2));
  cluster.Shutdown();
  const RealNetStats stats = cluster.stats();
  EXPECT_EQ(stats.messages_sent, kSends);
  EXPECT_EQ(stats.messages_duplicated, kSends);
  EXPECT_EQ(stats.messages_delivered, 2 * kSends);
}

}  // namespace
}  // namespace samya::rt
