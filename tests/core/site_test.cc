#include "core/site.h"

#include <gtest/gtest.h>

#include "core/app_manager.h"
#include "harness/workload_client.h"
#include "sim/cluster.h"

namespace samya::core {
namespace {

using harness::WorkloadClient;
using harness::WorkloadClientOptions;
using workload::Request;

struct Rig {
  explicit Rig(uint64_t seed) : cluster(seed) {}

  std::vector<Site*> AddSites(int n, SiteOptions base = {}) {
    std::vector<sim::NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(i);
    std::vector<Site*> sites;
    for (int i = 0; i < n; ++i) {
      SiteOptions opts = base;
      opts.sites = ids;
      auto* site = cluster.AddNode<Site>(
          sim::kPaperRegions[static_cast<size_t>(i) % 5], opts);
      site->set_storage(cluster.StorageFor(site->id()));
      sites.push_back(site);
    }
    return sites;
  }

  WorkloadClient* AddClient(sim::NodeId server, std::vector<Request> script,
                            sim::Region region = sim::Region::kUsWest1) {
    WorkloadClientOptions copts;
    copts.servers = {server};
    copts.request_timeout = Seconds(5);
    copts.max_attempts = 1;
    return cluster.AddNode<WorkloadClient>(region, copts, std::move(script));
  }

  sim::Cluster cluster;
};

std::vector<Request> Script(
    std::vector<std::tuple<SimTime, Request::Type, int32_t>> rs) {
  std::vector<Request> out;
  for (auto& [at, type, amount] : rs) out.push_back({at, type, amount});
  return out;
}

int64_t TotalTokens(const std::vector<Site*>& sites) {
  int64_t sum = 0;
  for (auto* s : sites) sum += s->tokens_left();
  return sum;
}

TEST(SiteTest, ServesAcquireAndReleaseLocally) {
  Rig rig(1);
  SiteOptions base;
  base.initial_tokens = 100;
  auto sites = rig.AddSites(1, base);
  // The release arrives well after both acquires' round trips: the client
  // only releases tokens whose acquire has already committed (it skips
  // releases exceeding its balance), and a same-millisecond release would
  // race the first acquire's ~2 ms commit.
  auto* client = rig.AddClient(
      0, Script({{Millis(1), Request::Type::kAcquire, 30},
                 {Millis(2), Request::Type::kAcquire, 20},
                 {Millis(50), Request::Type::kRelease, 10}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(client->stats().committed_acquires, 2u);
  EXPECT_EQ(client->stats().committed_releases, 1u);
  EXPECT_EQ(sites[0]->tokens_left(), 100 - 30 - 20 + 10);
  // Local service is sub-millisecond: no cross-region round trips.
  EXPECT_LT(client->stats().latency.P99(), Millis(5));
}

TEST(SiteTest, RejectsWhenNoRedistributionConfigured) {
  Rig rig(2);
  SiteOptions base;
  base.initial_tokens = 10;
  base.enable_redistribution = false;
  base.enable_prediction = false;
  auto sites = rig.AddSites(2, base);
  auto* client =
      rig.AddClient(0, Script({{Millis(1), Request::Type::kAcquire, 50}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(client->stats().rejected, 1u);
  EXPECT_EQ(sites[0]->tokens_left(), 10);
}

TEST(SiteTest, NoConstraintModeCommitsEverything) {
  Rig rig(3);
  SiteOptions base;
  base.initial_tokens = 10;
  base.enforce_constraint = false;
  base.enable_redistribution = false;
  base.enable_prediction = false;
  auto sites = rig.AddSites(1, base);
  auto* client =
      rig.AddClient(0, Script({{Millis(1), Request::Type::kAcquire, 1000}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(client->stats().committed_acquires, 1u);
  EXPECT_EQ(sites[0]->tokens_left(), -990);
}

TEST(SiteTest, ReactiveRedistributionPullsSpareTokens) {
  // Site 0 is dry; sites 1-4 hold plenty. An unservable acquire triggers
  // Avantan and then commits from the re-balanced pool (§4.1.2 steps 5-8).
  for (Protocol protocol :
       {Protocol::kAvantanMajority, Protocol::kAvantanAny}) {
    Rig rig(4);
    SiteOptions base;
    base.initial_tokens = 100;
    base.enable_prediction = false;
    base.protocol = protocol;
    auto sites = rig.AddSites(5, base);
    auto* client =
        rig.AddClient(0, Script({{Millis(1), Request::Type::kAcquire, 150}}));
    rig.cluster.StartAll();
    rig.cluster.env().RunFor(Seconds(3));

    EXPECT_EQ(client->stats().committed_acquires, 1u)
        << "protocol " << static_cast<int>(protocol);
    EXPECT_EQ(sites[0]->stats().reactive_redistributions, 1u);
    // Conservation: 5x100 minus the 150 committed.
    EXPECT_EQ(TotalTokens(sites), 500 - 150);
    for (auto* s : sites) EXPECT_FALSE(s->frozen());
    // Latency reflects one redistribution round, not a local hit.
    EXPECT_GT(client->stats().latency.max(), Millis(50));
  }
}

TEST(SiteTest, WritesQueueWhileFrozenAndDrainAfter) {
  Rig rig(5);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(3, base);
  auto* client = rig.AddClient(
      0, Script({{Millis(1), Request::Type::kAcquire, 150},    // triggers
                 {Millis(5), Request::Type::kAcquire, 10},     // queued
                 {Millis(6), Request::Type::kAcquire, 5}}));   // queued
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Millis(20));
  EXPECT_TRUE(sites[0]->frozen());
  EXPECT_GE(sites[0]->queue_depth(), 2u);
  rig.cluster.env().RunFor(Seconds(3));
  EXPECT_FALSE(sites[0]->frozen());
  EXPECT_EQ(client->stats().committed_acquires, 3u);
  EXPECT_EQ(TotalTokens(sites), 300 - 150 - 10 - 5);
}

TEST(SiteTest, ProactiveRedistributionFromPrediction) {
  // A predictor forecasting demand above the local pool triggers a
  // redistribution at the next epoch boundary without any client traffic.
  class HighDemandPredictor : public predict::DemandPredictor {
   public:
    Status Train(const std::vector<double>&) override { return Status::OK(); }
    void Observe(double) override {}
    double PredictNext() override { return 400.0; }
    std::string name() const override { return "stub"; }
  };
  Rig rig(6);
  SiteOptions base;
  base.initial_tokens = 100;
  base.epoch = Millis(100);
  base.predictor_factory = [] {
    return std::make_unique<HighDemandPredictor>();
  };
  auto sites = rig.AddSites(5, base);
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(2));
  EXPECT_GE(sites[0]->stats().proactive_redistributions, 1u);
  EXPECT_EQ(TotalTokens(sites), 500);  // Eq. 1: nothing created or destroyed
}

TEST(SiteTest, GlobalReadAggregatesAllSites) {
  Rig rig(7);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(5, base);
  auto* client =
      rig.AddClient(0, Script({{Millis(1), Request::Type::kRead, 1}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(2));
  ASSERT_EQ(client->stats().committed_reads, 1u);
  // The §5.8 read returns the global availability: 5 x 100.
  // (Read the value through the response: exposed via latency-only stats, so
  // instead check via a second read against mutated state.)
  EXPECT_GT(client->stats().latency.max(), Millis(100));  // global fan-out
}

TEST(SiteTest, ReadValueReflectsGlobalAvailability) {
  // Drive the site directly with a probe node to inspect the read value.
  class Probe : public sim::Node {
   public:
    Probe(sim::NodeId id, sim::Region region) : Node(id, region) {}
    void Ask(sim::NodeId site) {
      TokenRequest req;
      req.request_id = 99;
      req.op = TokenOp::kRead;
      BufferWriter w;
      req.EncodeTo(w);
      Send(site, kMsgTokenRequest, w);
    }
    void HandleMessage(sim::NodeId, uint32_t, BufferReader& r) override {
      value = TokenResponse::DecodeFrom(r)->value;
    }
    int64_t value = -1;
  };
  Rig rig(8);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(3, base);
  auto* probe = rig.cluster.AddNode<Probe>(sim::Region::kUsWest1);
  rig.cluster.StartAll();
  probe->Ask(0);
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(probe->value, 300);
}

TEST(SiteTest, DuplicateRequestAnsweredOnce) {
  // Replaying the same request id must not double-apply (at-most-once).
  class Dup : public sim::Node {
   public:
    Dup(sim::NodeId id, sim::Region region) : Node(id, region) {}
    void AskTwice(sim::NodeId site) {
      TokenRequest req;
      req.request_id = 1234;
      req.op = TokenOp::kAcquire;
      req.amount = 10;
      BufferWriter w;
      req.EncodeTo(w);
      Send(site, kMsgTokenRequest, w);
      Send(site, kMsgTokenRequest, w);
    }
    void HandleMessage(sim::NodeId, uint32_t, BufferReader& r) override {
      auto resp = TokenResponse::DecodeFrom(r);
      if (resp->committed()) ++commits;
    }
    int commits = 0;
  };
  Rig rig(9);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(1, base);
  auto* dup = rig.cluster.AddNode<Dup>(sim::Region::kUsWest1);
  rig.cluster.StartAll();
  dup->AskTwice(0);
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(dup->commits, 2);               // both get answers...
  EXPECT_EQ(sites[0]->tokens_left(), 90);   // ...but tokens move once
}

TEST(SiteTest, StateSurvivesCrashRecovery) {
  Rig rig(10);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(3, base);
  auto* client = rig.AddClient(
      0, Script({{Millis(1), Request::Type::kAcquire, 40}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(1));
  ASSERT_EQ(client->stats().committed_acquires, 1u);
  ASSERT_EQ(sites[0]->tokens_left(), 60);

  rig.cluster.net().Crash(0);
  rig.cluster.env().RunFor(Seconds(1));
  rig.cluster.net().Recover(0);
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(sites[0]->tokens_left(), 60);  // reloaded from stable storage
}

TEST(SiteTest, AppManagerRelaysBothWays) {
  Rig rig(11);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(2, base);
  AppManagerOptions aopts;
  aopts.sites = {0, 1};
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);
  auto* client = rig.AddClient(
      am->id(), Script({{Millis(1), Request::Type::kAcquire, 5},
                        {Millis(100), Request::Type::kRelease, 2}}));
  rig.cluster.StartAll();
  rig.cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(client->stats().committed_acquires, 1u);
  EXPECT_EQ(client->stats().committed_releases, 1u);
  EXPECT_EQ(am->relayed(), 2u);
  EXPECT_EQ(sites[0]->tokens_left(), 97);
}

TEST(SiteTest, AppManagerFailsOverToNextSite) {
  Rig rig(12);
  SiteOptions base;
  base.initial_tokens = 100;
  base.enable_prediction = false;
  auto sites = rig.AddSites(2, base);
  AppManagerOptions aopts;
  aopts.sites = {0, 1};
  aopts.max_attempts = 2;
  aopts.site_timeout = Millis(300);
  auto* am = rig.cluster.AddNode<AppManager>(sim::Region::kUsWest1, aopts);
  auto* client = rig.AddClient(
      am->id(), Script({{Millis(1), Request::Type::kAcquire, 5}}));
  rig.cluster.StartAll();
  rig.cluster.net().Crash(0);
  rig.cluster.env().RunFor(Seconds(3));
  EXPECT_EQ(client->stats().committed_acquires, 1u);
  EXPECT_EQ(sites[1]->tokens_left(), 95);
}

}  // namespace
}  // namespace samya::core
