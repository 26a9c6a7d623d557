#include "core/app_manager.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/site.h"
#include "harness/workload_client.h"
#include "sim/cluster.h"

namespace samya::core {
namespace {

using harness::WorkloadClient;
using harness::WorkloadClientOptions;
using workload::Request;

struct Rig {
  explicit Rig(uint64_t seed) : cluster(seed) {
    std::vector<sim::NodeId> ids = {0, 1, 2};
    for (int i = 0; i < 3; ++i) {
      SiteOptions opts;
      opts.sites = ids;
      opts.initial_tokens = 100;
      opts.enable_prediction = false;
      auto* site = cluster.AddNode<Site>(
          sim::kPaperRegions[static_cast<size_t>(i)], opts);
      site->set_storage(cluster.StorageFor(site->id()));
      sites.push_back(site);
    }
  }
  sim::Cluster cluster;
  std::vector<Site*> sites;
};

TEST(AppManagerTest, RotatesOverSameRegionSites) {
  Rig rig(1);
  AppManagerOptions aopts;
  aopts.sites = {0, 1, 2};
  aopts.rotate_over = 2;  // spread over the first two
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  std::vector<Request> script;
  for (int i = 0; i < 10; ++i) {
    script.push_back({Millis(10 * (i + 1)), Request::Type::kAcquire, 1});
  }
  auto* client = rig.cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1,
                                                     copts, script);
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(2));
  EXPECT_EQ(client->stats().committed_acquires, 10u);
  EXPECT_EQ(rig.sites[0]->tokens_left(), 95);
  EXPECT_EQ(rig.sites[1]->tokens_left(), 95);
  EXPECT_EQ(rig.sites[2]->tokens_left(), 100);
}

TEST(AppManagerTest, CrashLosesOnlyInFlightRouting) {
  // The paper calls app managers stateless: a crash may orphan in-flight
  // requests (the client retries) but a recovered manager serves new ones
  // with no recovery protocol.
  Rig rig(2);
  AppManagerOptions aopts;
  aopts.sites = {0, 1, 2};
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  copts.request_timeout = Millis(400);
  copts.max_attempts = 3;
  std::vector<Request> script = {{Millis(10), Request::Type::kAcquire, 1},
                                 {Seconds(2), Request::Type::kAcquire, 1}};
  auto* client = rig.cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1,
                                                     copts, script);
  rig.cluster.StartAll();
  // Crash the AM while the first response is on the wire; recover soon.
  rig.cluster.env().Schedule(Millis(10) + Micros(400), [&] {
    rig.cluster.net().Crash(am->id());
  });
  rig.cluster.env().Schedule(Millis(100), [&] {
    rig.cluster.net().Recover(am->id());
  });
  rig.cluster.env().RunFor(Seconds(5));
  // Both requests eventually commit: the first via the client's retry (the
  // site's dedup guard absorbs the duplicate), the second normally.
  EXPECT_EQ(client->stats().committed_acquires, 2u);
  // Exactly two tokens moved despite the retry.
  EXPECT_EQ(rig.sites[0]->tokens_left() + rig.sites[1]->tokens_left() +
                rig.sites[2]->tokens_left(),
            298);
}

TEST(AppManagerTest, GivesUpAfterMaxAttempts) {
  Rig rig(3);
  AppManagerOptions aopts;
  aopts.sites = {0};
  aopts.site_timeout = Millis(200);
  aopts.max_attempts = 2;
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  copts.request_timeout = Seconds(2);
  copts.max_attempts = 1;
  auto* client = rig.cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      std::vector<Request>{{Millis(10), Request::Type::kAcquire, 1}});
  rig.cluster.StartAll();
  rig.cluster.net().Crash(0);  // the only site
  rig.cluster.env().RunFor(Seconds(5));
  EXPECT_EQ(client->stats().committed_acquires, 0u);
  EXPECT_EQ(client->stats().dropped, 1u);
  EXPECT_EQ(am->relayed(), 2u);  // original + one failover attempt
}

TEST(AppManagerTest, RetriesBackOffExponentiallyUpToCap) {
  // All sites down, jitter off: the retry timers are exactly site_timeout,
  // then x2 per attempt, capped. With site_timeout=200ms and cap=400ms the
  // relay times are t0, t0+200ms, t0+600ms, t0+1000ms (the cap holds).
  Rig rig(8);
  AppManagerOptions aopts;
  aopts.sites = {0, 1, 2};
  aopts.site_timeout = Millis(200);
  aopts.backoff_cap = Millis(400);
  aopts.backoff_jitter = 0.0;
  aopts.max_attempts = 4;
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  copts.request_timeout = Seconds(5);
  copts.max_attempts = 1;
  auto* client = rig.cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      std::vector<Request>{{Millis(10), Request::Type::kAcquire, 1}});
  (void)client;
  rig.cluster.StartAll();
  for (auto* s : rig.sites) rig.cluster.net().Crash(s->id());

  rig.cluster.env().RunUntil(Millis(100));
  EXPECT_EQ(am->relayed(), 1u);
  rig.cluster.env().RunUntil(Millis(300));  // first retry at ~210ms
  EXPECT_EQ(am->relayed(), 2u);
  rig.cluster.env().RunUntil(Millis(550));  // second waits 400ms (doubled)
  EXPECT_EQ(am->relayed(), 2u);
  rig.cluster.env().RunUntil(Millis(700));
  EXPECT_EQ(am->relayed(), 3u);
  rig.cluster.env().RunUntil(Millis(950));  // third also waits 400ms (capped)
  EXPECT_EQ(am->relayed(), 3u);
  rig.cluster.env().RunUntil(Millis(1100));
  EXPECT_EQ(am->relayed(), 4u);
  EXPECT_EQ(am->failover_resends(), 3u);  // every attempt past the first
}

TEST(AppManagerTest, BackoffJitterStaysWithinFraction) {
  // With jitter on, each retry timeout lands in [base, base * (1+jitter)].
  // Same crash-everything setup; bound the observable relay times.
  Rig rig(9);
  AppManagerOptions aopts;
  aopts.sites = {0, 1, 2};
  aopts.site_timeout = Millis(200);
  aopts.backoff_cap = Seconds(6);
  aopts.backoff_jitter = 0.2;
  aopts.max_attempts = 3;
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  copts.request_timeout = Seconds(5);
  copts.max_attempts = 1;
  auto* client = rig.cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      std::vector<Request>{{Millis(10), Request::Type::kAcquire, 1}});
  (void)client;
  rig.cluster.StartAll();
  for (auto* s : rig.sites) rig.cluster.net().Crash(s->id());

  // Attempt 1 at ~10ms; attempt 2 after exactly 200ms (first wait never
  // jitters); attempt 3 after 400ms..480ms.
  rig.cluster.env().RunUntil(Millis(205));
  EXPECT_EQ(am->relayed(), 1u);
  rig.cluster.env().RunUntil(Millis(215));
  EXPECT_EQ(am->relayed(), 2u);
  rig.cluster.env().RunUntil(Millis(605));
  EXPECT_EQ(am->relayed(), 2u);  // earliest third relay is 210 + 400
  rig.cluster.env().RunUntil(Millis(700));
  EXPECT_EQ(am->relayed(), 3u);  // latest is 215 + 480
  EXPECT_EQ(am->failover_resends(), 2u);
}

TEST(AppManagerTest, BackoffCapHoldsEvenWithJitter) {
  // Regression: jitter used to be added after the clamp, so a retry wait
  // could exceed backoff_cap by up to the jitter fraction. Once the doubled
  // base hits the cap, the wait must be exactly backoff_cap no matter what
  // the jitter draw says.
  Rig rig(11);
  AppManagerOptions aopts;
  aopts.sites = {0, 1, 2};
  aopts.site_timeout = Millis(200);
  aopts.backoff_cap = Millis(400);
  aopts.backoff_jitter = 0.9;
  aopts.max_attempts = 4;
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  WorkloadClientOptions copts;
  copts.servers = {am->id()};
  copts.request_timeout = Seconds(5);
  copts.max_attempts = 1;
  auto* client = rig.cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      std::vector<Request>{{Millis(10), Request::Type::kAcquire, 1}});
  (void)client;
  rig.cluster.StartAll();
  for (auto* s : rig.sites) rig.cluster.net().Crash(s->id());

  // Attempt 1 at ~10ms, attempt 2 after exactly 200ms (first wait never
  // jitters). Attempts 3 and 4 each wait exactly 400ms: the doubled base is
  // at the cap, so the post-jitter clamp pins them there. Pre-fix, the wait
  // could stretch to 400ms * 1.9 = 760ms.
  rig.cluster.env().RunUntil(Millis(300));
  EXPECT_EQ(am->relayed(), 2u);
  rig.cluster.env().RunUntil(Millis(580));
  EXPECT_EQ(am->relayed(), 2u);
  rig.cluster.env().RunUntil(Millis(680));
  EXPECT_EQ(am->relayed(), 3u);
  rig.cluster.env().RunUntil(Millis(980));
  EXPECT_EQ(am->relayed(), 3u);
  rig.cluster.env().RunUntil(Millis(1080));
  EXPECT_EQ(am->relayed(), 4u);
}

TEST(AppManagerTest, SingleAttemptRunsIgnoreJitterKnobs) {
  // max_attempts=1 (the default deployment) must never draw from the RNG:
  // wildly different jitter settings produce the identical run.
  auto run = [](double jitter) {
    Rig rig(10);
    AppManagerOptions aopts;
    aopts.sites = {0, 1, 2};
    aopts.site_timeout = Millis(200);
    aopts.backoff_jitter = jitter;
    aopts.max_attempts = 1;
    auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);
    WorkloadClientOptions copts;
    copts.servers = {am->id()};
    copts.request_timeout = Millis(600);
    copts.max_attempts = 2;
    auto* client = rig.cluster.AddNode<WorkloadClient>(
        sim::Region::kUsWest1, copts,
        std::vector<Request>{{Millis(10), Request::Type::kAcquire, 2},
                             {Millis(900), Request::Type::kAcquire, 3}});
    rig.cluster.StartAll();
    rig.cluster.net().Crash(0);  // force the timeout path through the AM
    rig.cluster.env().Schedule(Millis(500),
                               [&] { rig.cluster.net().Recover(0); });
    rig.cluster.env().RunFor(Seconds(4));
    return std::tuple(rig.cluster.net().stats().messages_sent,
                      rig.cluster.env().events_executed(),
                      client->stats().committed_acquires,
                      rig.sites[0]->tokens_left());
  };
  EXPECT_EQ(run(0.0), run(0.9));
}

TEST(AppManagerTest, RelaysMaximumLengthRequestByteForByte) {
  // The longest request the decoder accepts pads both varints to 10 bytes;
  // the site must receive exactly the client's bytes.
  class Sink : public sim::Node {
   public:
    using Node::Node;
    void HandleMessage(sim::NodeId, uint32_t type, BufferReader& r) override {
      if (type != kMsgTokenRequest) return;
      received.assign(r.data(), r.data() + r.remaining());
    }
    void SendRaw(sim::NodeId to, const std::vector<uint8_t>& bytes) {
      Send(to, kMsgTokenRequest, bytes.data(), bytes.size());
    }
    std::vector<uint8_t> received;
  };
  sim::Cluster cluster(11);
  auto* site = cluster.AddNode<Sink>(sim::Region::kUsWest1);
  auto* client = cluster.AddNode<Sink>(sim::Region::kUsWest1);
  AppManagerOptions aopts;
  aopts.sites = {site->id()};
  auto* am = cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);

  BufferWriter w;
  w.PutU64(0x0102030405060708);
  for (int i = 0; i < 9; ++i) w.PutU8(0x80);  // entity 0, padded
  w.PutU8(0x00);
  w.PutU8(static_cast<uint8_t>(TokenOp::kAcquire));
  w.PutU8(0x82);  // amount 1 (zigzag 2), padded
  for (int i = 0; i < 8; ++i) w.PutU8(0x80);
  w.PutU8(0x00);
  const std::vector<uint8_t> bytes = w.buffer();
  ASSERT_EQ(bytes.size(), TokenRequest::kMaxEncodedBytes);
  BufferReader check(bytes);
  auto decoded = TokenRequest::DecodeFrom(check);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->amount, 1);

  cluster.StartAll();
  client->SendRaw(am->id(), bytes);
  cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(site->received, bytes);
}

}  // namespace
}  // namespace samya::core
