#include "figures.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace samya::figures {
namespace {

constexpr Outcome kPass = Outcome::kPass;
constexpr Outcome kFail = Outcome::kFail;
constexpr Outcome kNotReproduced = Outcome::kNotReproduced;

TEST(FiguresTest, IdsAreUniqueAndFindable) {
  std::set<std::string> ids;
  for (const Figure& figure : AllFigures()) {
    EXPECT_TRUE(ids.insert(figure.id).second) << figure.id;
    EXPECT_EQ(FindFigure(figure.id), &figure);
  }
  EXPECT_EQ(ids.size(), 18u);
  EXPECT_EQ(FindFigure("fig3z"), nullptr);
}

TEST(FiguresTest, Table2aNeedsRandomWalkAboveArimaAboveLstm) {
  EXPECT_EQ(Table2aVerdict(93.06, 85.07, 82.53).outcome, kPass);
  EXPECT_EQ(Table2aVerdict(93.06, 80.00, 82.53).outcome, kFail);
}

TEST(FiguresTest, Table2bNeedsSingleDigitSamyaAndSlowReplicas) {
  EXPECT_EQ(Table2bVerdict(5.23, 4.92, 601.67, 541.95).outcome, kPass);
  EXPECT_EQ(Table2bVerdict(12.0, 4.92, 601.67, 541.95).outcome, kFail);
  EXPECT_EQ(Table2bVerdict(5.23, 4.92, 601.67, 80.0).outcome, kFail);
}

TEST(FiguresTest, Fig3aNeedsPeriodicTraceNearPaperMax) {
  EXPECT_EQ(Fig3aVerdict(0.630, 15995).outcome, kPass);
  EXPECT_EQ(Fig3aVerdict(0.10, 15995).outcome, kFail);
  EXPECT_EQ(Fig3aVerdict(0.630, 4000).outcome, kFail);
}

TEST(FiguresTest, Fig3bNeedsTenfoldOverReplicasAndParityWithDem) {
  EXPECT_EQ(Fig3bVerdict(269.5, 261.1, 15.8, 16.0).outcome, kPass);
  EXPECT_EQ(Fig3bVerdict(269.5, 261.1, 40.0, 16.0).outcome, kFail);
  EXPECT_EQ(Fig3bVerdict(269.5, 280.0, 15.8, 16.0).outcome, kFail);
}

TEST(FiguresTest, Fig3cNeedsMultiPaxDeadAndSamyaAnyServing) {
  EXPECT_EQ(Fig3cVerdict(0.0, 27.8, 49.6, 76.2).outcome, kPass);
  EXPECT_EQ(Fig3cVerdict(5.0, 27.8, 49.6, 76.2).outcome, kFail);
  EXPECT_EQ(Fig3cVerdict(0.0, 0.0, 49.6, 76.2).outcome, kFail);
  EXPECT_EQ(Fig3cVerdict(0.0, 27.8, 90.0, 76.2).outcome, kFail);
}

TEST(FiguresTest, Fig3dNeedsAnyAtLeastMajorityFarAboveMultiPax) {
  EXPECT_EQ(Fig3dVerdict(213.8, 264.7, 15.8).outcome, kPass);
  EXPECT_EQ(Fig3dVerdict(213.8, 200.0, 15.8).outcome, kFail);
  EXPECT_EQ(Fig3dVerdict(40.0, 264.7, 15.8).outcome, kFail);
}

TEST(FiguresTest, Fig3eNeedsNearOptimumAndAboveNoRedistribution) {
  EXPECT_EQ(Fig3eVerdict(260.1, 258.0, 255.7, 245.9).outcome, kPass);
  EXPECT_EQ(Fig3eVerdict(260.1, 258.0, 255.7, 258.5).outcome, kFail);
  EXPECT_EQ(Fig3eVerdict(300.0, 258.0, 255.7, 245.9).outcome, kFail);
}

TEST(FiguresTest, Fig3fSeparatesPaperClaimOurClaimAndNeither) {
  EXPECT_EQ(Fig3fVerdict(1.42, 1.38).outcome, kPass);
  EXPECT_EQ(Fig3fVerdict(0.999, 0.997).outcome, kNotReproduced);
  EXPECT_EQ(Fig3fVerdict(0.90, 0.997).outcome, kFail);
  EXPECT_EQ(Fig3fVerdict(1.15, 1.10).outcome, kFail);
}

TEST(FiguresTest, Fig3gNeedsLinearThroughputAndFlatLatency) {
  EXPECT_EQ(Fig3gVerdict(4.04, 1.35, 4.04, 0.94).outcome, kPass);
  EXPECT_EQ(Fig3gVerdict(2.0, 1.35, 4.04, 0.94).outcome, kFail);
  EXPECT_EQ(Fig3gVerdict(4.04, 1.35, 4.04, 2.5).outcome, kFail);
}

TEST(FiguresTest, Fig3hNeedsCrossoverAboveHalfUpTo65Percent) {
  EXPECT_EQ(Fig3hVerdict(0.65).outcome, kPass);
  EXPECT_EQ(Fig3hVerdict(0.9).outcome, kFail);
  EXPECT_EQ(Fig3hVerdict(0.5).outcome, kFail);
  EXPECT_EQ(Fig3hVerdict(-1).outcome, kFail);
}

TEST(FiguresTest, ExtMaxLimitNeedsALargerPoolToCommitMore) {
  EXPECT_EQ(ExtMaxLimitVerdict(1.43).outcome, kPass);
  EXPECT_EQ(ExtMaxLimitVerdict(1.0).outcome, kFail);
}

TEST(FiguresTest, ExtArrivalRateSeparatesPaperClaimOurClaimAndNeither) {
  EXPECT_EQ(ExtArrivalRateVerdict({16.1, 7.7, 3.0, 1.43, 1.43}).outcome,
            kPass);
  EXPECT_EQ(ExtArrivalRateVerdict({16.1, 7.7, 3.0, 1.43, 1.0, 1.0}).outcome,
            kNotReproduced);
  EXPECT_EQ(ExtArrivalRateVerdict({16.1, 7.7, 9.0, 1.43, 1.0}).outcome, kFail);
  EXPECT_EQ(ExtArrivalRateVerdict({16.1, 7.7, 3.0, 1.43, 0.6}).outcome, kFail);
}

TEST(FiguresTest, ExtBoundedCounterNeedsItBetweenSamyaAndDemRejectingMore) {
  EXPECT_EQ(ExtBoundedCounterVerdict(260.5, 253.0, 249.6, 2704, 9753).outcome,
            kPass);
  EXPECT_EQ(ExtBoundedCounterVerdict(250.0, 253.0, 249.6, 2704, 9753).outcome,
            kFail);
  EXPECT_EQ(ExtBoundedCounterVerdict(260.5, 253.0, 255.0, 2704, 9753).outcome,
            kFail);
  EXPECT_EQ(ExtBoundedCounterVerdict(260.5, 253.0, 249.6, 2704, 2704).outcome,
            kFail);
}

// The measured disconnection rows: site 0's counters, Eq. 1, violations.
const DisconnectionCheck kSeed{{0, 0, 0, 0, 0}, true, 0};
const DisconnectionCheck kArmed{{1, 952, 1066, 0, 1}, true, 0};
const DisconnectionCheck kBounded{{1, 1351, 0, 0, 1}, true, 0};
const DisconnectionCheck kCrashed{{1, 939, 1053, 590, 1}, true, 0};

TEST(FiguresTest, ExtDisconnectionNeedsEveryClaimAndACleanLedger) {
  EXPECT_EQ(ExtDisconnectionVerdict(kSeed, kArmed, kBounded).outcome, kPass);
  // One FAIL per conjunct: run `run`'s counter `field` set to `value`.
  const auto fails = [](int run, uint64_t SiteZeroStats::*field,
                        uint64_t value) {
    DisconnectionCheck c[] = {kSeed, kArmed, kBounded};
    c[run].site0.*field = value;
    return ExtDisconnectionVerdict(c[0], c[1], c[2]).outcome == kFail;
  };
  EXPECT_TRUE(fails(0, &SiteZeroStats::disconnected_served, 3));
  EXPECT_TRUE(fails(1, &SiteZeroStats::disconnected_served, 0));
  EXPECT_TRUE(fails(1, &SiteZeroStats::oplog_appends, 0));
  EXPECT_TRUE(fails(1, &SiteZeroStats::reconciles, 0));
  EXPECT_TRUE(fails(2, &SiteZeroStats::disconnected_epochs, 0));
  EXPECT_TRUE(fails(2, &SiteZeroStats::reconciles, 0));
  for (int run = 0; run < 3; ++run) {
    DisconnectionCheck c[] = {kSeed, kArmed, kBounded};
    c[run].conserved = false;
    EXPECT_EQ(ExtDisconnectionVerdict(c[0], c[1], c[2]).outcome, kFail) << run;
    c[run].conserved = true;
    c[run].violations = 1;
    EXPECT_EQ(ExtDisconnectionVerdict(c[0], c[1], c[2]).outcome, kFail) << run;
  }
}

TEST(FiguresTest, ExtDisconnectionCrashNeedsReplayReconcileAndCleanLedger) {
  EXPECT_EQ(ExtDisconnectionCrashVerdict(kCrashed).outcome, kPass);
  DisconnectionCheck broken[] = {kCrashed, kCrashed, kCrashed, kCrashed};
  broken[0].site0.oplog_replayed = 0;
  broken[1].site0.reconciles = 0;
  broken[2].conserved = false;
  broken[3].violations = 2;
  for (const DisconnectionCheck& c : broken) {
    EXPECT_EQ(ExtDisconnectionCrashVerdict(c).outcome, kFail);
  }
}

// The disconnection runs differ only in the audit flag, the schedule and
// disconnected mode; each must stay its own experiment.
TEST(FiguresTest, NewIdsRunDistinctExperiments) {
  // `figures::` because a gtest body's own `Run` hides the type.
  std::vector<figures::Run> runs;
  for (const char* id :
       {"ext_bounded_counter", "ext_disconnection", "ext_disconnection_crash"}) {
    const Figure* figure = FindFigure(id);
    ASSERT_NE(figure, nullptr) << id;
    for (figures::Run& run : figure->runs()) runs.push_back(std::move(run));
  }
  ASSERT_EQ(runs.size(), 8u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(SameRun(runs[i], runs[i]));
    for (size_t j = i + 1; j < runs.size(); ++j) {
      EXPECT_FALSE(SameRun(runs[i], runs[j])) << i << " vs " << j;
    }
  }
}

TEST(FiguresTest, RobustnessNeedsTenfoldOnEverySeed) {
  EXPECT_EQ(RobustnessVerdict(15.4, 16.8).outcome, kPass);
  EXPECT_EQ(RobustnessVerdict(8.0, 16.8).outcome, kFail);
}

TEST(FiguresTest, VerdictCarriesTheMeasuredNumbers) {
  const Verdict v = Fig3hVerdict(0.65);
  EXPECT_EQ(v.measured, "crossover at 65% reads (paper ~65%)");
  EXPECT_STREQ(OutcomeName(v.outcome), "PASS");
  EXPECT_STREQ(OutcomeName(kNotReproduced), "NOT-REPRODUCED");
}

}  // namespace
}  // namespace samya::figures
