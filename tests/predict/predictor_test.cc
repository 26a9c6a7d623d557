#include "predict/predictor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "predict/metrics.h"

namespace samya::predict {
namespace {

TEST(RandomWalkTest, PredictsLastObservation) {
  RandomWalkPredictor p;
  ASSERT_TRUE(p.Train({1, 2, 3}).ok());
  EXPECT_DOUBLE_EQ(p.PredictNext(), 3.0);
  p.Observe(10);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 10.0);
}

TEST(RandomWalkTest, EmptyTrainPredictsZero) {
  RandomWalkPredictor p;
  ASSERT_TRUE(p.Train({}).ok());
  EXPECT_DOUBLE_EQ(p.PredictNext(), 0.0);
}

TEST(EwmaTest, ConvergesToConstant) {
  EwmaPredictor p(0.5);
  ASSERT_TRUE(p.Train({}).ok());
  for (int i = 0; i < 50; ++i) p.Observe(42);
  EXPECT_NEAR(p.PredictNext(), 42.0, 1e-9);
}

TEST(EwmaTest, WeightsRecentMore) {
  EwmaPredictor p(0.5);
  p.Observe(0);
  p.Observe(100);
  EXPECT_GT(p.PredictNext(), 49.0);
}

TEST(EwmaTest, RejectsBadAlpha) {
  EwmaPredictor p(0.0);
  EXPECT_FALSE(p.Train({1.0}).ok());
  EwmaPredictor q(1.5);
  EXPECT_FALSE(q.Train({1.0}).ok());
}

TEST(SeasonalNaiveTest, TracksPeriodExactly) {
  SeasonalNaivePredictor p(/*period=*/4, /*blend=*/1.0);
  ASSERT_TRUE(p.Train({10, 20, 30, 40, 10, 20, 30, 40}).ok());
  // Next value (index 8) is one season after index 4 -> 10.
  EXPECT_DOUBLE_EQ(p.PredictNext(), 10.0);
  p.Observe(10);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 20.0);
}

TEST(SeasonalNaiveTest, FallsBackBeforeFullSeason) {
  SeasonalNaivePredictor p(/*period=*/100);
  ASSERT_TRUE(p.Train({5, 5, 5}).ok());
  EXPECT_NEAR(p.PredictNext(), 5.0, 1e-9);
}

TEST(SeasonalNaiveTest, RejectsZeroPeriod) {
  SeasonalNaivePredictor p(0);
  EXPECT_FALSE(p.Train({1}).ok());
}

// Regression: Observe used to grow an unbounded history vector even though
// only the last `period` values are ever read — a site observing one epoch
// every 5 seconds leaked memory for the whole run. Steady-state memory must
// stay O(period).
TEST(SeasonalNaiveTest, HistoryMemoryIsBoundedByPeriod) {
  constexpr size_t kPeriod = 16;
  SeasonalNaivePredictor p(kPeriod);
  for (int i = 0; i < 100000; ++i) p.Observe(i % 97);
  EXPECT_EQ(p.history_size(), kPeriod);
  EXPECT_LT(p.history_capacity(), 2 * kPeriod + 1);
}

// The ring must predict exactly what the unbounded-history implementation
// predicted: seasonal component = the value one season back.
TEST(SeasonalNaiveTest, RingMatchesUnboundedReference) {
  constexpr size_t kPeriod = 7;
  SeasonalNaivePredictor ring(kPeriod, /*blend=*/0.6);
  EwmaPredictor level(0.4);  // mirrors the predictor's internal level EWMA
  std::vector<double> history;  // the old implementation's state
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double v = 50 + 40 * std::sin(2 * M_PI * i / 7.0) + rng.Gaussian(0, 3);
    ring.Observe(v);
    history.push_back(v);
    level.Observe(v);
    double expected;
    if (history.size() < kPeriod) {
      expected = level.PredictNext();
    } else {
      const double seasonal = history[history.size() - kPeriod];
      const double blended = 0.6 * seasonal + 0.4 * level.PredictNext();
      expected = blended < 0 ? 0 : blended;
    }
    ASSERT_DOUBLE_EQ(ring.PredictNext(), expected) << "at step " << i;
  }
}

TEST(SeasonalNaiveTest, BeatsRandomWalkOnPeriodicSeries) {
  Rng rng(31);
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) {
    y.push_back(100 + 80 * std::sin(2 * M_PI * i / 48.0) +
                rng.Gaussian(0, 5));
  }
  Split split = TrainTestSplit(y, 0.8);
  SeasonalNaivePredictor seasonal(48, 0.9);
  RandomWalkPredictor walk;
  auto ms = EvaluateOneStepAhead(seasonal, split);
  auto mw = EvaluateOneStepAhead(walk, split);
  ASSERT_TRUE(ms.ok());
  ASSERT_TRUE(mw.ok());
  EXPECT_LT(ms->mae, mw->mae);
}

TEST(MetricsTest, SplitFractions) {
  std::vector<double> y(100);
  for (int i = 0; i < 100; ++i) y[static_cast<size_t>(i)] = i;
  Split s = TrainTestSplit(y, 0.8);
  EXPECT_EQ(s.train.size(), 80u);
  EXPECT_EQ(s.test.size(), 20u);
  EXPECT_DOUBLE_EQ(s.train.front(), 0);
  EXPECT_DOUBLE_EQ(s.test.front(), 80);
}

TEST(MetricsTest, PerfectPredictorHasZeroError) {
  // Constant series: random walk is exact.
  std::vector<double> y(50, 7.0);
  Split s = TrainTestSplit(y, 0.5);
  RandomWalkPredictor p;
  auto m = EvaluateOneStepAhead(p, s);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->mae, 0.0);
  EXPECT_DOUBLE_EQ(m->rmse, 0.0);
  EXPECT_EQ(m->n, 25u);
}

TEST(MetricsTest, MaeMatchesHandComputation) {
  // Series 0,0 | 10, 0: walk predicts 0 then 10 -> errors 10, 10.
  Split s;
  s.train = {0, 0};
  s.test = {10, 0};
  RandomWalkPredictor p;
  auto m = EvaluateOneStepAhead(p, s);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->mae, 10.0);
}

TEST(FactoryTest, MakesNamedPredictors) {
  EXPECT_EQ(MakeSeasonalNaive(10)->name(), "seasonal_naive");
}

}  // namespace
}  // namespace samya::predict
