#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/token_api.h"
#include "consensus/raft.h"
#include "consensus/token_sm.h"
#include "core/app_manager.h"
#include "core/messages.h"
#include "core/site.h"
#include "sim/cluster.h"

namespace samya::core {
namespace {

// Regression sweep for the decode-path audit: a frame truncated at *any*
// byte must be rejected whole — no crash, no reply, no state mutation. The
// real transport (rt/wire.h) length-checks frames, but a buggy peer or a
// replayed datagram can still hand a handler a short payload; before the
// audit the handlers `.value()`-crashed on the first missing field.

using Encoded = std::pair<uint32_t, std::vector<uint8_t>>;

template <typename Msg>
Encoded Encode(uint32_t type, const Msg& msg) {
  BufferWriter w;
  msg.EncodeTo(w);
  return {type, w.buffer()};
}

std::vector<Encoded> SiteMessages() {
  std::vector<Encoded> out;
  const Ballot ballot{7, 2};
  const EntityState ent{1, 50, 10};
  StateList list;
  list.entries = {ent, EntityState{2, 40, 0}};

  TokenRequest req;
  req.request_id = 99;
  req.op = TokenOp::kAcquire;
  req.amount = 3;
  out.push_back(Encode(kMsgTokenRequest, req));

  // Single-request batch: count varint + one encoded request. (Multi-request
  // batches serve complete leading requests by design; with one request every
  // strict prefix must be a clean no-op.)
  {
    BufferWriter w;
    w.PutVarint(1);
    req.EncodeTo(w);
    out.emplace_back(kMsgTokenBatchRequest, w.buffer());
  }

  ElectionGetValue egv;
  egv.instance = 4;
  egv.ballot = ballot;
  out.push_back(Encode(kMsgElectionGetValue, egv));

  ElectionOkValue eov;
  eov.instance = 4;
  eov.ballot = ballot;
  eov.kind = ElectionOkValue::Kind::kOk;
  eov.init_val = ent;
  eov.accept_val = list;
  eov.accept_num = ballot;
  out.push_back(Encode(kMsgElectionOkValue, eov));

  AcceptValue av;
  av.instance = 4;
  av.ballot = ballot;
  av.value = list;
  out.push_back(Encode(kMsgAcceptValue, av));

  AcceptOk ok;
  ok.instance = 4;
  ok.ballot = ballot;
  out.push_back(Encode(kMsgAcceptOk, ok));

  DecisionMsg dec;
  dec.instance = 4;
  dec.ballot = ballot;
  dec.value = list;
  out.push_back(Encode(kMsgDecision, dec));

  Discard dis;
  dis.instance = 4;
  dis.ballot = ballot;
  out.push_back(Encode(kMsgDiscard, dis));

  StatusQuery sq;
  sq.instance = 4;
  out.push_back(Encode(kMsgStatusQuery, sq));

  StatusReply sr;
  sr.instance = 4;
  sr.kind = StatusReply::Kind::kDecided;
  sr.value = list;
  out.push_back(Encode(kMsgStatusReply, sr));

  ReadQuery rq;
  rq.read_id = 5;
  out.push_back(Encode(kMsgReadQuery, rq));

  ReadReply rr;
  rr.read_id = 5;
  rr.tokens_left = 123;
  out.push_back(Encode(kMsgReadReply, rr));

  SiteHeartbeat hb;
  hb.depoch = 2;
  out.push_back(Encode(kMsgSiteHeartbeat, hb));

  ReconcileOffer ro;
  ro.epoch = 2;
  ro.ops_logged = 9;
  ro.net_delta = -4;
  out.push_back(Encode(kMsgReconcileOffer, ro));

  ReconcileAck ra;
  ra.epoch = 2;
  out.push_back(Encode(kMsgReconcileAck, ra));

  return out;
}

struct SiteSnapshot {
  int64_t tokens_left;
  int64_t tokens_wanted;
  bool frozen;
  size_t queue_depth;
  uint64_t disconnected_epoch;
  uint64_t messages_sent;

  static SiteSnapshot Of(const Site& s, sim::Cluster& c) {
    return SiteSnapshot{s.tokens_left(),        s.tokens_wanted(),
                        s.frozen(),             s.queue_depth(),
                        s.disconnected_epoch(), c.net().stats().messages_sent};
  }
  bool operator==(const SiteSnapshot& o) const {
    return tokens_left == o.tokens_left && tokens_wanted == o.tokens_wanted &&
           frozen == o.frozen && queue_depth == o.queue_depth &&
           disconnected_epoch == o.disconnected_epoch &&
           messages_sent == o.messages_sent;
  }
};

TEST(TruncationSweepTest, SiteRejectsEveryTruncatedFrameWhole) {
  sim::Cluster cluster(1);
  std::vector<rt::NodeId> ids = {0, 1, 2};
  std::vector<Site*> sites;
  for (int i = 0; i < 3; ++i) {
    SiteOptions opts;
    opts.sites = ids;
    opts.initial_tokens = 100;
    opts.enable_prediction = false;
    auto* site =
        cluster.AddNode<Site>(sim::kPaperRegions[static_cast<size_t>(i)], opts);
    site->set_storage(cluster.StorageFor(site->id()));
    sites.push_back(site);
  }
  cluster.StartAll();
  cluster.env().RunFor(Millis(10));

  Site* target = sites[0];
  for (const auto& [type, bytes] : SiteMessages()) {
    // Every strict prefix misses at least one byte of some field, so the
    // decode must fail before any handler runs.
    for (size_t n = 0; n < bytes.size(); ++n) {
      const SiteSnapshot before = SiteSnapshot::Of(*target, cluster);
      BufferReader r(bytes.data(), n);
      target->HandleMessage(1, type, r);
      EXPECT_EQ(SiteSnapshot::Of(*target, cluster), before)
          << "type " << type << " truncated to " << n << " of "
          << bytes.size() << " bytes mutated site state";
    }
  }
  // Unknown message types are dropped, not fatal: a freshly bound real-world
  // port can receive stale frames from an earlier process.
  const SiteSnapshot before = SiteSnapshot::Of(*target, cluster);
  std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  BufferReader r(junk.data(), junk.size());
  target->HandleMessage(1, 9999, r);
  EXPECT_EQ(SiteSnapshot::Of(*target, cluster), before);
}

TEST(TruncationSweepTest, AppManagerRejectsTruncatedFrames) {
  sim::Cluster cluster(2);
  SiteOptions sopts;
  sopts.sites = {0};
  sopts.initial_tokens = 100;
  sopts.enable_prediction = false;
  auto* site = cluster.AddNode<Site>(sim::kPaperRegions[0], sopts);
  site->set_storage(cluster.StorageFor(site->id()));
  AppManagerOptions aopts;
  aopts.sites = {0};
  auto* am = cluster.AddNode<AppManager>(sim::kPaperRegions[1], aopts);
  cluster.StartAll();
  cluster.env().RunFor(Millis(10));

  TokenRequest req;
  req.request_id = 7;
  BufferWriter wreq;
  req.EncodeTo(wreq);
  TokenResponse resp;
  resp.request_id = 7;
  resp.status = TokenStatus::kCommitted;
  BufferWriter wresp;
  resp.EncodeTo(wresp);

  for (const auto& [type, bytes] :
       {Encoded{kMsgTokenRequest, wreq.buffer()},
        Encoded{kMsgTokenResponse, wresp.buffer()}}) {
    for (size_t n = 0; n < bytes.size(); ++n) {
      const uint64_t sent_before = cluster.net().stats().messages_sent;
      BufferReader r(bytes.data(), n);
      am->HandleMessage(9, type, r);
      EXPECT_EQ(cluster.net().stats().messages_sent, sent_before)
          << "truncated type " << type << " at " << n << " caused a relay";
      EXPECT_EQ(am->relayed(), 0u);
    }
  }
}

TEST(TruncationSweepTest, ConsensusNodesRejectTruncatedFrames) {
  // Raft carries its codecs inline in the handlers; sweep hand-built full
  // encodings of every message type the same way.
  sim::Cluster cluster(3);

  consensus::RaftOptions ropts;
  ropts.group = {0, 1, 2};
  auto* raft = cluster.AddNode<consensus::RaftNode>(
      sim::kPaperRegions[1], ropts,
      std::make_unique<consensus::TokenStateMachine>(100));
  raft->set_storage(cluster.StorageFor(raft->id()));
  cluster.StartAll();
  cluster.env().RunFor(Millis(1));

  std::vector<Encoded> raft_msgs;
  {
    BufferWriter w;  // RequestVote: term, last_index, last_term
    w.PutVarintSigned(5);
    w.PutVarintSigned(3);
    w.PutVarintSigned(2);
    raft_msgs.emplace_back(consensus::kMsgRaftRequestVote, w.buffer());
  }
  {
    BufferWriter w;  // VoteResponse: term, granted
    w.PutVarintSigned(5);
    w.PutBool(true);
    raft_msgs.emplace_back(consensus::kMsgRaftVoteResponse, w.buffer());
  }
  {
    BufferWriter w;  // AppendEntries: term, prev_i, prev_t, 1 entry, commit
    w.PutVarintSigned(5);
    w.PutVarintSigned(0);
    w.PutVarintSigned(0);
    w.PutVarint(1);
    w.PutVarintSigned(5);
    w.PutString("cmd");
    w.PutVarintSigned(0);
    raft_msgs.emplace_back(consensus::kMsgRaftAppendEntries, w.buffer());
  }
  {
    BufferWriter w;  // AppendResponse: term, success, match
    w.PutVarintSigned(5);
    w.PutBool(true);
    w.PutVarintSigned(1);
    raft_msgs.emplace_back(consensus::kMsgRaftAppendResponse, w.buffer());
  }

  for (const auto& [type, bytes] : raft_msgs) {
    for (size_t n = 0; n < bytes.size(); ++n) {
      const uint64_t sent_before = cluster.net().stats().messages_sent;
      BufferReader r(bytes.data(), n);
      raft->HandleMessage(4, type, r);
      EXPECT_EQ(cluster.net().stats().messages_sent, sent_before);
    }
  }
}

}  // namespace
}  // namespace samya::core
