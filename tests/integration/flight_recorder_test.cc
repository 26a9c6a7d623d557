// Flight-recorder contract tests (DESIGN.md §8).
//
// The recorder is an always-on-capable pure observer, so the pinned
// properties are:
//  - arming it changes nothing: run digests with the recorder on are
//    bit-identical to runs with all observability off, under loss +
//    duplication + isolation chaos;
//  - two armed runs of the same seed record the same canonical
//    (at, site, seq) history, event for event (same Digest());
//  - the bounded ring accounts wraparound exactly (total / dropped /
//    complete_from) instead of silently losing history;
//  - a post-mortem bundle round-trips byte-identically through
//    Write -> Load -> Write, hand-edited bad events fail to load, bundles
//    from older writers (with the retired "runtime" section) still load, and
//    `DiffPostmortems` finds zero divergence between identical-seed runs but
//    a first divergent event once a test-only mutation perturbs the
//    protocol history;
//  - the spans and message flights derived from a captured run hold
//    together: every delivery pairs with its send, cohort engages join a
//    leader's round, and reactive rounds start where a request waits.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/testonly_mutation.h"
#include "harness/explore.h"
#include "harness/postmortem.h"
#include "obs/flight_recorder.h"
#include "sim/nemesis.h"

namespace samya::harness {
namespace {

using Digest = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, uint64_t, int64_t, uint64_t>;

/// Loss + duplication spikes around a region-island isolation with a crash/
/// recover cycle inside it: every message-fate and degraded-mode event kind
/// fires, and the per-sender RNG draw order is exercised hard.
sim::FaultSchedule LossDupIsolationSchedule() {
  sim::FaultSchedule s;
  auto add = [&s](SimTime at, sim::FaultOp::Kind kind, double value) {
    sim::FaultOp op;
    op.at = at;
    op.kind = kind;
    op.value = value;
    s.ops.push_back(op);
  };
  add(Seconds(2), sim::FaultOp::Kind::kSetLossRate, 0.05);
  add(Seconds(3), sim::FaultOp::Kind::kSetDuplicateRate, 0.05);
  sim::FaultOp iso;
  iso.at = Seconds(4);
  iso.kind = sim::FaultOp::Kind::kIsolateSite;
  iso.a = 0;
  iso.groups = {{0, 5, 10}};
  s.ops.push_back(iso);
  sim::FaultOp crash;
  crash.at = Seconds(7);
  crash.kind = sim::FaultOp::Kind::kCrash;
  crash.a = 1;
  s.ops.push_back(crash);
  sim::FaultOp recover;
  recover.at = Seconds(9);
  recover.kind = sim::FaultOp::Kind::kRecover;
  recover.a = 1;
  s.ops.push_back(recover);
  sim::FaultOp heal;
  heal.at = Seconds(12);
  heal.kind = sim::FaultOp::Kind::kHeal;
  s.ops.push_back(heal);
  add(Seconds(13), sim::FaultOp::Kind::kSetLossRate, 0.0);
  add(Seconds(14), sim::FaultOp::Kind::kSetDuplicateRate, 0.0);
  return s;
}

struct RunOut {
  Digest digest;
  std::shared_ptr<obs::Observability> obs;
};

RunOut RunOnce(bool flight) {
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = Seconds(20);
  opts.max_tokens = 300;  // scarce enough to trigger redistributions
  opts.seed = 11;
  opts.fault_schedule = LossDupIsolationSchedule();
  opts.obs.flight_capacity = flight ? obs::FlightRecorder::kDefaultCapacity : 0;
  opts.site_template.enable_disconnected_mode = true;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  RunOut out;
  out.digest = Digest(r.events_executed, r.aggregate.committed_acquires,
                      r.aggregate.committed_releases, r.aggregate.rejected,
                      r.network.messages_sent, r.network.messages_delivered,
                      r.network.messages_duplicated, r.network.bytes_sent,
                      experiment.TotalSiteTokens(),
                      r.aggregate.latency.count());
  out.obs = r.obs;
  return out;
}

TEST(FlightRecorderDeterminismTest, ArmedRunIsBitIdenticalToUnobserved) {
  const RunOut off = RunOnce(/*flight=*/false);
  const RunOut on = RunOnce(/*flight=*/true);
  EXPECT_EQ(off.digest, on.digest);
  ASSERT_NE(on.obs, nullptr);
  ASSERT_NE(on.obs->flight(), nullptr);
  EXPECT_GT(on.obs->flight()->total(), 0u);
  // Off means off: no recorder object at all, not an idle one.
  EXPECT_EQ(off.obs, nullptr);
}

TEST(FlightRecorderDeterminismTest, ArmedRunsRepeatEventForEvent) {
  const RunOut a = RunOnce(/*flight=*/true);
  const RunOut b = RunOnce(/*flight=*/true);
  ASSERT_NE(a.obs->flight(), nullptr);
  ASSERT_NE(b.obs->flight(), nullptr);
  const std::vector<obs::FlightEvent> events = a.obs->flight()->Canonical();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(b.obs->flight()->Canonical(), events);
  EXPECT_EQ(b.obs->flight()->Digest(), a.obs->flight()->Digest());
}

TEST(FlightRecorderTest, RingWraparoundAccounting) {
  obs::FlightRecorder rec(/*capacity=*/8);
  EXPECT_EQ(rec.complete_from(), 0);
  for (int i = 1; i <= 20; ++i) {
    rec.Record(/*at=*/i * 10, /*site=*/i % 3, obs::FlightKind::kPoolDelta,
               obs::kPoolServe, /*a=*/-1, /*b=*/100 - i);
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.retained(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  // Events 1..12 (times 10..120) were evicted in arrival order, so the
  // retained history is complete from just after t=120.
  EXPECT_EQ(rec.complete_from(), 121);
  const std::vector<obs::FlightEvent> canon = rec.Canonical();
  ASSERT_EQ(canon.size(), 8u);
  for (size_t i = 0; i + 1 < canon.size(); ++i) {
    EXPECT_LE(canon[i].at, canon[i + 1].at);
  }
  EXPECT_EQ(canon.front().at, 130);
  EXPECT_EQ(canon.back().at, 200);
}

TEST(FlightRecorderTest, MergePreservesStampsAndSeqMonotonicity) {
  obs::FlightRecorder a;
  obs::FlightRecorder b;
  a.Record(100, /*site=*/0, obs::FlightKind::kPhase, obs::kPhaseEngage, 1);
  b.Record(50, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseEngage, 2);
  b.Record(150, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseAbort, 2);
  a.Merge(b);
  const std::vector<obs::FlightEvent> canon = a.Canonical();
  ASSERT_EQ(canon.size(), 3u);
  EXPECT_EQ(canon[0].at, 50);
  EXPECT_EQ(canon[1].at, 100);
  EXPECT_EQ(canon[2].at, 150);
  // Recording for a merged site continues past its merged seq values.
  a.Record(200, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseFinish, 2);
  const std::vector<obs::FlightEvent> after = a.Canonical();
  EXPECT_GT(after.back().seq, canon[2].seq);
}

TEST(FlightRecorderTest, MergedEvictionsShiftTheNextOverwriteSlot) {
  // Capacity 6 is not a power of two, as in RealHarness's merged recorder.
  obs::FlightRecorder dst(/*capacity=*/6);
  obs::FlightRecorder src(/*capacity=*/3);
  for (SimTime at = 1; at <= 5; ++at) {
    src.Record(at, /*site=*/1, obs::FlightKind::kPhase, obs::kPhaseEngage);
  }
  dst.Merge(src);  // ring [4 5 3]; total 5 counts src's 2 evictions
  for (SimTime at = 10; at <= 50; at += 10) {
    dst.Record(at, /*site=*/0, obs::FlightKind::kPhase, obs::kPhaseEngage);
  }
  // Slot total % 6 takes each overwrite: 40 replaces 3, then 50 replaces 10.
  EXPECT_EQ(dst.total(), 10u);
  EXPECT_EQ(dst.dropped(), 4u);
  EXPECT_EQ(dst.complete_from(), 11);
  std::vector<SimTime> kept;
  for (const obs::FlightEvent& ev : dst.Canonical()) kept.push_back(ev.at);
  EXPECT_EQ(kept, (std::vector<SimTime>{4, 5, 20, 30, 40, 50}));
}

TEST(FlightRecorderTest, MessageTypeNames) {
  EXPECT_STREQ(obs::MessageTypeName(10), "token_request");
  EXPECT_STREQ(obs::MessageTypeName(200), "election_get_value");
  EXPECT_STREQ(obs::MessageTypeName(204), "decision");
  EXPECT_STREQ(obs::MessageTypeName(122), "raft_append_entries");
  EXPECT_STREQ(obs::MessageTypeName(9999), "msg");
}

TEST(FlightViewsTest, DerivesRoundsPhasesWaitsAndFlights) {
  obs::FlightRecorder rec;
  using obs::FlightKind;
  // Site 1 queues request 77 and leads instance 5 in the same handler.
  rec.Record(100, 1, FlightKind::kRequest, obs::kRequestQueued, 77, 10);
  rec.Record(100, 1, FlightKind::kPhase, obs::kPhaseEngage, 5, 0);
  rec.Record(100, 1, FlightKind::kPhase, obs::kPhaseElectionStart, 5, 1);
  const uint32_t seq = rec.Record(100, 1, FlightKind::kMsgSend, obs::kSendOk,
                                  200, /*to=*/2, /*bytes=*/4);
  rec.Record(100, 1, FlightKind::kMsgSend, obs::kSendOk, 200, /*to=*/3, 4);
  rec.Record(140, 2, FlightKind::kMsgDeliver, obs::kDeliverOk, 200,
             /*from=*/1, seq);
  rec.Record(140, 2, FlightKind::kPhase, obs::kPhaseEngage, 5, 0);
  rec.Record(300, 1, FlightKind::kPhase, obs::kPhaseAcceptStart, 5, 2);
  rec.Record(500, 1, FlightKind::kPhase, obs::kPhaseDecided, 5, 2);
  rec.Record(500, 1, FlightKind::kPhase, obs::kPhaseFinish, 5, 0);
  rec.Record(500, 1, FlightKind::kRequest, obs::kRequestAnswered, 77, 0);
  // Site 2's engage is still open when the run ends at t=900.
  const FlightViews v = DeriveFlightViews(rec.Canonical(), /*end=*/900);

  std::map<std::string, std::vector<FlightSpan>> by_name;
  for (const FlightSpan& s : v.spans) by_name[s.name].push_back(s);
  ASSERT_EQ(by_name["avantan.round"].size(), 1u);
  EXPECT_EQ(by_name["avantan.round"][0].site, 1);
  EXPECT_EQ(by_name["avantan.round"][0].start, 100);
  EXPECT_EQ(by_name["avantan.round"][0].end, 500);
  ASSERT_EQ(by_name["avantan.engage"].size(), 1u);
  EXPECT_EQ(by_name["avantan.engage"][0].site, 2);
  EXPECT_EQ(by_name["avantan.engage"][0].end, 900);
  ASSERT_EQ(by_name["election"].size(), 1u);
  EXPECT_EQ(by_name["election"][0].end, 300);
  ASSERT_EQ(by_name["accept"].size(), 1u);
  EXPECT_EQ(by_name["accept"][0].end, 500);
  ASSERT_EQ(by_name["request.queued"].size(), 1u);
  EXPECT_EQ(by_name["request.queued"][0].key, 77);
  EXPECT_EQ(by_name["request.queued"][0].end, 500);

  ASSERT_EQ(v.messages.size(), 2u);
  EXPECT_EQ(v.messages[0].fate, MessageFate::kDelivered);
  EXPECT_EQ(v.messages[0].arrived, 140);
  EXPECT_EQ(v.messages[1].fate, MessageFate::kInFlight);

  const std::string report = RenderFlightViews(v);
  EXPECT_NE(report.find("(reactive)"), std::string::npos) << report;
  EXPECT_NE(report.find("in_flight"), std::string::npos) << report;
  EXPECT_NE(report.find("(1 rounds)"), std::string::npos) << report;
}

/// A 40 s token-scarce capture: reactive rounds, cohort engages and queued
/// requests all occur, and the unbounded ring keeps the whole history.
TEST(FlightViewsTest, CapturedRunPairsMessagesAndJoinsRounds) {
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = Seconds(40);
  opts.max_tokens = 500;
  opts.seed = 7;
  opts.obs.flight_capacity = obs::FlightRecorder::kUnbounded;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  ASSERT_NE(r.obs, nullptr);
  const obs::FlightRecorder& flight = *r.obs->flight();
  ASSERT_EQ(flight.dropped(), 0u);
  const std::vector<obs::FlightEvent> evs = flight.Canonical();

  // Every paired delivery names exactly one earlier send of its type.
  std::map<std::pair<int32_t, uint32_t>, const obs::FlightEvent*> sends;
  for (const obs::FlightEvent& ev : evs) {
    if (ev.kind == obs::FlightKind::kMsgSend) sends[{ev.site, ev.seq}] = &ev;
  }
  std::set<std::pair<int32_t, uint32_t>> paired;
  uint64_t delivered = 0;
  for (const obs::FlightEvent& ev : evs) {
    if (ev.kind != obs::FlightKind::kMsgDeliver || ev.c < 0) continue;
    const std::pair<int32_t, uint32_t> key{static_cast<int32_t>(ev.b),
                                           static_cast<uint32_t>(ev.c)};
    auto it = sends.find(key);
    ASSERT_NE(it, sends.end()) << FormatFlightEvent(ev);
    EXPECT_EQ(it->second->a, ev.a) << FormatFlightEvent(ev);
    EXPECT_EQ(it->second->b, ev.site) << FormatFlightEvent(ev);
    EXPECT_GE(ev.at, it->second->at) << FormatFlightEvent(ev);
    EXPECT_TRUE(paired.insert(key).second) << "send paired twice";
    if (ev.code == obs::kDeliverOk) ++delivered;
  }
  EXPECT_EQ(delivered, r.network.messages_delivered);

  const FlightViews v = DeriveFlightViews(evs, opts.duration);
  uint64_t delivered_flights = 0;
  for (const MessageFlight& m : v.messages) {
    if (m.fate == MessageFate::kDelivered) ++delivered_flights;
  }
  EXPECT_EQ(delivered_flights, r.network.messages_delivered);

  // Cohort engages join a leader round of the same instance elsewhere, and
  // some leader round was triggered by a request waiting at its (site, at).
  std::multimap<int64_t, int32_t> leaders;  // instance -> leader site
  for (const FlightSpan& s : v.spans) {
    if (std::strcmp(s.name, "avantan.round") == 0) {
      leaders.emplace(s.key, s.site);
    }
  }
  std::set<std::pair<int32_t, SimTime>> waits;
  for (const obs::FlightEvent& ev : evs) {
    if (ev.kind == obs::FlightKind::kRequest &&
        ev.code == obs::kRequestQueued) {
      waits.emplace(ev.site, ev.at);
    }
  }
  int engages = 0;
  int reactive = 0;
  for (const FlightSpan& s : v.spans) {
    if (std::strcmp(s.name, "avantan.round") == 0) {
      EXPECT_GE(s.end, s.start);
      if (waits.count({s.site, s.start}) != 0) ++reactive;
    }
    if (std::strcmp(s.name, "avantan.engage") != 0) continue;
    ++engages;
    bool joined = false;
    auto range = leaders.equal_range(s.key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second != s.site) joined = true;
    }
    EXPECT_TRUE(joined) << "engage of instance " << s.key << " at site "
                        << s.site << " has no leader elsewhere";
  }
  EXPECT_GT(leaders.size(), 0u);
  EXPECT_GT(engages, 0);
  EXPECT_GT(reactive, 0) << "no round started where a request waits";
}

class PostmortemRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("samya_flight_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
};

TEST_F(PostmortemRoundTripTest, WriteLoadRewriteIsByteIdentical) {
  ExploreCase c;
  c.system = SystemKind::kSamyaMajority;
  const ExploreRunResult r = RunExploreCase(c);
  ASSERT_NE(r.obs, nullptr);
  ASSERT_NE(r.obs->flight(), nullptr);
  const PostmortemBundle bundle =
      MakePostmortem("flight_recorder_test", c.ToJson(), r);

  const std::string p1 = (dir_ / "bundle1.json").string();
  const std::string p2 = (dir_ / "bundle2.json").string();
  ASSERT_TRUE(WritePostmortem(bundle, p1).ok());
  auto loaded = LoadPostmortem(p1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(WritePostmortem(loaded.value(), p2).ok());
  EXPECT_EQ(Slurp(p1), Slurp(p2));

  // The decoded events must match the recorder's canonical view exactly.
  auto events = FlightEventsOf(loaded.value());
  ASSERT_TRUE(events.ok()) << events.status().message();
  EXPECT_EQ(events.value(), r.obs->flight()->Canonical());
}

TEST_F(PostmortemRoundTripTest, HandEditedBadEventsFailToLoad) {
  obs::FlightRecorder rec;
  rec.Record(100, /*site=*/2, obs::FlightKind::kPhase, obs::kPhaseEngage, 7);
  PostmortemBundle b;
  b.source = "test";
  b.flight = rec.ToJson();
  const std::string path = (dir_ / "good.json").string();
  ASSERT_TRUE(WritePostmortem(b, path).ok());
  const std::string good = Slurp(path);
  auto loaded = LoadPostmortem(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(FlightEventsOf(loaded.value()).ok());

  // Each edit replaces one field of the single event.
  const std::pair<const char*, const char*> edits[] = {
      {"\"site\": 2", "\"site\": -1"},
      {"\"site\": 2,", ""},
      {"\"seq\": 0", "\"seq\": 4294967296"},
      {"\"code\": 9", "\"code\": 65537"},
      {"\"at\": 100,", ""},
      {"\"kind\": \"phase\",", ""},
      {"\"kind\": \"phase\"", "\"kind\": \"no_such_kind\""},
      {"\"a\": 7", "\"a\": \"7\""},
  };
  for (const auto& [from, to] : edits) {
    std::string text = good;
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::strlen(from), to);
    const std::string bad = (dir_ / "bad.json").string();
    std::ofstream(bad) << text;
    auto bundle = LoadPostmortem(bad);
    ASSERT_TRUE(bundle.ok()) << from << " -> " << to;
    auto events = FlightEventsOf(bundle.value());
    ASSERT_FALSE(events.ok()) << from << " -> " << to;
    EXPECT_EQ(events.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PostmortemRoundTripTest, IdenticalSeedBundlesDiffClean) {
  ExploreCase c;
  c.system = SystemKind::kSamyaMajority;
  const ExploreRunResult r1 = RunExploreCase(c);
  const ExploreRunResult r2 = RunExploreCase(c);
  const PostmortemBundle b1 = MakePostmortem("test", c.ToJson(), r1);
  const PostmortemBundle b2 = MakePostmortem("test", c.ToJson(), r2);
  const PostmortemDiff d = DiffPostmortems(b1, b2);
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.diverged) << "a: " << d.event_a << " b: " << d.event_b;
  EXPECT_GT(d.compared, 0u);
}

TEST_F(PostmortemRoundTripTest, MutatedRunDiffReportsFirstDivergentEvent) {
  ExploreCase c;
  c.system = SystemKind::kSamyaMajority;
  const ExploreRunResult clean = RunExploreCase(c);
  SetMutationForTest(kMutationAllocRemainder, true);
  ExploreCase mutated_case = c;
  mutated_case.mutation = kMutationAllocRemainder;
  const ExploreRunResult mutated = RunExploreCase(mutated_case);
  SetMutationForTest(kMutationAllocRemainder, false);
  ASSERT_TRUE(mutated.violated());

  const PostmortemBundle bc = MakePostmortem("test", c.ToJson(), clean);
  const PostmortemBundle bm =
      MakePostmortem("test", mutated_case.ToJson(), mutated);
  // The mutated run carries the auditor's marker in its flight history.
  auto mutated_events = FlightEventsOf(bm);
  ASSERT_TRUE(mutated_events.ok());
  bool saw_violation_marker = false;
  for (const obs::FlightEvent& ev : mutated_events.value()) {
    if (ev.kind == obs::FlightKind::kViolation) saw_violation_marker = true;
  }
  EXPECT_TRUE(saw_violation_marker);

  const PostmortemDiff d = DiffPostmortems(bc, bm);
  ASSERT_TRUE(d.comparable);
  ASSERT_TRUE(d.diverged);
  EXPECT_FALSE(d.event_a.empty());
  EXPECT_FALSE(d.event_b.empty());
}

/// Every bundle in the tree: the legacy fixtures under testdata/, plus any
/// `*_postmortem.json` that a replay left next to a corpus case.
std::vector<std::filesystem::path> CommittedBundles() {
  std::vector<std::filesystem::path> out;
  const auto add = [&out](const char* dir, const std::string& suffix) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.push_back(entry.path());
      }
    }
  };
  add(FLIGHT_TESTDATA_DIR, ".json");
  add(CHAOS_CORPUS_DIR, "_postmortem.json");
  add(SCHEDULE_CORPUS_DIR, "_postmortem.json");
  std::sort(out.begin(), out.end());
  return out;
}

// Older writers emitted a "runtime" flight section; bundles carrying it
// must still load, decode and round-trip unchanged.
TEST_F(PostmortemRoundTripTest, CommittedBundlesStillLoad) {
  const std::vector<std::filesystem::path> bundles = CommittedBundles();
  ASSERT_FALSE(bundles.empty());
  bool saw_legacy_runtime = false;
  for (const auto& path : bundles) {
    SCOPED_TRACE(path.filename().string());
    auto loaded = LoadPostmortem(path.string());
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    auto events = FlightEventsOf(loaded.value());
    ASSERT_TRUE(events.ok()) << events.status().message();
    EXPECT_FALSE(events.value().empty());
    if (loaded.value().flight.Find("runtime") != nullptr) {
      saw_legacy_runtime = true;
    }
    const std::string p1 = (dir_ / "rewrite1.json").string();
    const std::string p2 = (dir_ / "rewrite2.json").string();
    ASSERT_TRUE(WritePostmortem(loaded.value(), p1).ok());
    auto reloaded = LoadPostmortem(p1);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
    ASSERT_TRUE(WritePostmortem(reloaded.value(), p2).ok());
    const std::string rewritten = Slurp(p1);
    EXPECT_EQ(rewritten, Slurp(p2));
    EXPECT_EQ(rewritten, Slurp(path.string()));
  }
  EXPECT_TRUE(saw_legacy_runtime);

  // A freshly written bundle has no runtime section.
  obs::FlightRecorder rec;
  rec.Record(100, /*site=*/0, obs::FlightKind::kPhase, obs::kPhaseEngage, 1);
  PostmortemBundle fresh;
  fresh.source = "test";
  fresh.flight = rec.ToJson();
  const std::string path = (dir_ / "fresh.json").string();
  ASSERT_TRUE(WritePostmortem(fresh, path).ok());
  auto loaded = LoadPostmortem(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().flight.Find("runtime"), nullptr);
  EXPECT_EQ(Slurp(path).find("\"runtime\""), std::string::npos);
}

}  // namespace
}  // namespace samya::harness
