#include "harness/workload_client.h"

#include <gtest/gtest.h>

#include "sim/cluster.h"

namespace samya::harness {
namespace {

using workload::Request;

/// Minimal token server: commits acquires up to a limit, releases always,
/// with a configurable artificial response delay.
class StubServer : public sim::Node {
 public:
  StubServer(sim::NodeId id, sim::Region region, int64_t tokens,
             Duration delay = 0)
      : Node(id, region), tokens_(tokens), delay_(delay) {}

  void HandleMessage(sim::NodeId from, uint32_t type,
                     BufferReader& r) override {
    ASSERT_EQ(type, kMsgTokenRequest);
    auto req = TokenRequest::DecodeFrom(r);
    ASSERT_TRUE(req.ok());
    ++requests;
    TokenResponse resp;
    resp.request_id = req->request_id;
    switch (req->op) {
      case TokenOp::kAcquire:
        if (tokens_ >= req->amount) {
          tokens_ -= req->amount;
          resp.status = TokenStatus::kCommitted;
        } else {
          resp.status = TokenStatus::kRejected;
        }
        break;
      case TokenOp::kRelease:
        tokens_ += req->amount;
        resp.status = TokenStatus::kCommitted;
        break;
      case TokenOp::kRead:
        resp.status = TokenStatus::kCommitted;
        resp.value = tokens_;
        break;
    }
    BufferWriter w;
    resp.EncodeTo(w);
    if (delay_ > 0) {
      // Defer the reply without blocking other requests.
      const auto payload = w.Release();
      pending_.push_back({from, payload});
      SetTimer(delay_, pending_.size() - 1);
    } else {
      Send(from, kMsgTokenResponse, w);
    }
  }

  void HandleTimer(uint64_t token) override {
    auto& [to, payload] = pending_[token];
    BufferWriter w;
    w.PutBytes(payload.data(), payload.size());
    Send(to, kMsgTokenResponse, w);
  }

  int64_t tokens_;
  Duration delay_;
  int requests = 0;
  std::vector<std::pair<sim::NodeId, std::vector<uint8_t>>> pending_;
};

TEST(WorkloadClientTest, OpenLoopFollowsScriptTimes) {
  sim::Cluster cluster(1);
  auto* server =
      cluster.AddNode<StubServer>(sim::Region::kUsWest1, /*tokens=*/100);
  WorkloadClientOptions copts;
  copts.servers = {server->id()};
  std::vector<Request> script = {{Seconds(1), Request::Type::kAcquire, 1},
                                 {Seconds(2), Request::Type::kAcquire, 1}};
  auto* client = cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts,
                                                 script);
  cluster.StartAll();
  cluster.env().RunUntil(Millis(1500));
  EXPECT_EQ(client->stats().sent, 1u);  // second request not due yet
  cluster.env().RunUntil(Seconds(5));
  EXPECT_EQ(client->stats().sent, 2u);
  EXPECT_EQ(client->stats().committed_acquires, 2u);
}

TEST(WorkloadClientTest, ClosedLoopKeepsWindowFull) {
  sim::Cluster cluster(2);
  auto* server = cluster.AddNode<StubServer>(sim::Region::kUsWest1, 1000000,
                                             /*delay=*/Millis(100));
  WorkloadClientOptions copts;
  copts.servers = {server->id()};
  copts.closed_loop = true;
  copts.window = 2;
  // 40 requests with arbitrary (ignored) timestamps.
  std::vector<Request> script(40, Request{0, Request::Type::kAcquire, 1});
  auto* client = cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts,
                                                 script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(10));
  EXPECT_EQ(client->stats().committed_acquires, 40u);
  // Throughput is window / per-request latency (~100ms + ~1ms network):
  // 40 requests at ~2 per 0.1s take ~2s, far less than the script's 0s
  // stamps would suggest if replayed open-loop all at once... but more
  // importantly, never more than `window` in flight:
  EXPECT_LE(client->outstanding(), 2u);
}

TEST(WorkloadClientTest, ClosedLoopThroughputIsLatencyBound) {
  // Two identical closed-loop clients against servers with different delays:
  // throughput ratio tracks the latency ratio.
  auto run = [](Duration delay) {
    sim::Cluster cluster(3);
    auto* server =
        cluster.AddNode<StubServer>(sim::Region::kUsWest1, 1000000, delay);
    WorkloadClientOptions copts;
    copts.servers = {server->id()};
    copts.closed_loop = true;
    copts.window = 1;
    std::vector<Request> script(10000, Request{0, Request::Type::kAcquire, 1});
    auto* client = cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1,
                                                   copts, script);
    cluster.StartAll();
    cluster.env().RunFor(Seconds(10));
    return client->stats().committed_acquires;
  };
  const auto slow = run(Millis(100));
  const auto fast = run(Millis(10));
  EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(slow), 10.0,
              2.0);
}

TEST(WorkloadClientTest, BalanceGuardSkipsOverdraftReleases) {
  sim::Cluster cluster(4);
  auto* server = cluster.AddNode<StubServer>(sim::Region::kUsWest1, 100);
  WorkloadClientOptions copts;
  copts.servers = {server->id()};
  std::vector<Request> script = {
      {Millis(1), Request::Type::kRelease, 5},   // nothing held: skipped
      {Millis(10), Request::Type::kAcquire, 3},
      {Millis(500), Request::Type::kRelease, 2},  // within balance: sent
      {Millis(600), Request::Type::kRelease, 2},  // exceeds balance: skipped
  };
  auto* client = cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts,
                                                 script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(2));
  EXPECT_EQ(client->stats().skipped_releases, 2u);
  EXPECT_EQ(client->stats().committed_releases, 1u);
  EXPECT_EQ(server->tokens_, 100 - 3 + 2);
}

TEST(WorkloadClientTest, RejectedReleaseRestoresBalance) {
  // A release that the server rejects leaves the client still holding the
  // tokens, so a later release is allowed.
  class RejectingServer : public StubServer {
   public:
    using StubServer::StubServer;
    void HandleMessage(sim::NodeId from, uint32_t type,
                       BufferReader& r) override {
      auto req = TokenRequest::DecodeFrom(r);
      ASSERT_TRUE(req.ok());
      TokenResponse resp;
      resp.request_id = req->request_id;
      resp.status = req->op == TokenOp::kRelease && reject_releases
                        ? TokenStatus::kRejected
                        : TokenStatus::kCommitted;
      (void)type;
      BufferWriter w;
      resp.EncodeTo(w);
      Send(from, kMsgTokenResponse, w);
    }
    bool reject_releases = true;
  };
  sim::Cluster cluster(5);
  auto* server = cluster.AddNode<RejectingServer>(sim::Region::kUsWest1, 0);
  WorkloadClientOptions copts;
  copts.servers = {server->id()};
  std::vector<Request> script = {
      {Millis(1), Request::Type::kAcquire, 4},
      {Millis(100), Request::Type::kRelease, 4},  // rejected: balance back
      {Millis(200), Request::Type::kRelease, 4},  // allowed again
  };
  auto* client = cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts,
                                                 script);
  cluster.StartAll();
  cluster.env().Schedule(Millis(150),
                         [&] { server->reject_releases = false; });
  cluster.env().RunFor(Seconds(2));
  EXPECT_EQ(client->stats().skipped_releases, 0u);
  EXPECT_EQ(client->stats().rejected, 1u);
  EXPECT_EQ(client->stats().committed_releases, 1u);
}

TEST(WorkloadClientTest, TimeoutFailsOverToNextServer) {
  sim::Cluster cluster(6);
  auto* dead = cluster.AddNode<StubServer>(sim::Region::kUsWest1, 100);
  auto* live = cluster.AddNode<StubServer>(sim::Region::kUsCentral1, 100);
  WorkloadClientOptions copts;
  copts.servers = {dead->id(), live->id()};
  copts.request_timeout = Millis(200);
  copts.max_attempts = 2;
  auto* client = cluster.AddNode<WorkloadClient>(
      sim::Region::kUsWest1, copts,
      std::vector<Request>{{Millis(1), Request::Type::kAcquire, 1}});
  cluster.StartAll();
  cluster.net().Crash(dead->id());
  cluster.env().RunFor(Seconds(2));
  EXPECT_EQ(client->stats().committed_acquires, 1u);
  EXPECT_EQ(live->tokens_, 99);
}

constexpr uint64_t kStaleZeroToken = ~0ull;  // answer for request id 0

TEST(WorkloadClientTest, DuplicateAndStaleResponsesFindNoEntry) {
  // A server that answers every request twice, the copy 5 ms later, and
  // also answers for ids the client never issued (0 and far-off ones). The
  // outstanding table must count each request exactly once, drop every
  // extra answer, and end empty. Replies arrive out of order (random
  // server-side delays), so entries are erased across a growing table.
  class EchoTwice : public sim::Node {
   public:
    using Node::Node;
    void HandleMessage(sim::NodeId from, uint32_t type,
                       BufferReader& r) override {
      ASSERT_EQ(type, kMsgTokenRequest);
      auto req = TokenRequest::DecodeFrom(r);
      ASSERT_TRUE(req.ok());
      client_ = from;
      const uint64_t id = req->request_id;
      const Duration delay = Millis(1 + static_cast<int64_t>(id % 37));
      SetTimer(delay, id);
      SetTimer(delay + Millis(5), id);
      SetTimer(delay, id + (1ull << 39));  // never issued
      SetTimer(delay, kStaleZeroToken);
    }
    void HandleTimer(uint64_t token) override {
      TokenResponse resp;
      resp.request_id = token == kStaleZeroToken ? 0 : token;
      resp.status = TokenStatus::kCommitted;
      BufferWriter w;
      resp.EncodeTo(w);
      Send(client_, kMsgTokenResponse, w);
    }
    sim::NodeId client_ = sim::kInvalidNode;
  };
  sim::Cluster cluster(29);
  auto* server = cluster.AddNode<EchoTwice>(sim::Region::kUsWest1);
  WorkloadClientOptions copts;
  copts.servers = {server->id()};
  copts.request_timeout = Seconds(10);
  std::vector<Request> script;
  for (int i = 0; i < 300; ++i) {
    script.push_back({Micros(100 * i), Request::Type::kAcquire, 1});
  }
  auto* client =
      cluster.AddNode<WorkloadClient>(sim::Region::kUsWest1, copts, script);
  cluster.StartAll();
  cluster.env().RunFor(Seconds(1));
  EXPECT_EQ(client->stats().sent, 300u);
  EXPECT_EQ(client->stats().committed_acquires, 300u);
  EXPECT_EQ(client->stats().latency.count(), 300u);
  EXPECT_EQ(client->stats().dropped, 0u);
  EXPECT_EQ(client->outstanding(), 0u);
}

}  // namespace
}  // namespace samya::harness
