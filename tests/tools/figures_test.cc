#include "figures.h"

#include <set>
#include <string>

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
  EXPECT_EQ(ids.size(), 15u);
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
