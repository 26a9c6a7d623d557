#ifndef SAMYA_PREDICT_PREDICTOR_H_
#define SAMYA_PREDICT_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace samya::predict {

/// \brief Pluggable Prediction Module (§4.1.1, §4.2).
///
/// A site trains a predictor on historical per-epoch demand (number of tokens
/// requested per epoch), feeds it each completed epoch's actual demand via
/// `Observe`, and calls `PredictNext` to estimate the next epoch's demand —
/// the `PredictedValue` of Eq. 4. Implementations must be deterministic given
/// their construction seed.
class DemandPredictor {
 public:
  virtual ~DemandPredictor() = default;

  /// Fits the model to a historical series. Called once before use; the
  /// series also seeds the observation history.
  virtual Status Train(const std::vector<double>& series) = 0;

  /// Appends the actual demand of the epoch that just ended.
  virtual void Observe(double value) = 0;

  /// One-step-ahead forecast of next epoch's demand, in tokens (>= 0).
  virtual double PredictNext() = 0;

  virtual std::string name() const = 0;
};

/// Naive baseline: tomorrow equals today (Table 2a's "Random Walk").
class RandomWalkPredictor : public DemandPredictor {
 public:
  Status Train(const std::vector<double>& series) override;
  void Observe(double value) override { last_ = value; }
  double PredictNext() override { return last_ < 0 ? 0 : last_; }
  std::string name() const override { return "random_walk"; }

 private:
  double last_ = 0;
};

/// Exponentially weighted moving average; cheap online predictor.
class EwmaPredictor : public DemandPredictor {
 public:
  explicit EwmaPredictor(double alpha = 0.3) : alpha_(alpha) {}
  Status Train(const std::vector<double>& series) override;
  void Observe(double value) override;
  double PredictNext() override { return ewma_ < 0 ? 0 : ewma_; }
  std::string name() const override { return "ewma"; }

 private:
  double alpha_;
  double ewma_ = 0;
  bool seeded_ = false;
};

/// Seasonal naive: next value equals the value one season ago, blended with
/// a short EWMA of the recent level. Strong on periodic cloud demand and
/// cheap enough to run per-epoch on every site.
class SeasonalNaivePredictor : public DemandPredictor {
 public:
  explicit SeasonalNaivePredictor(size_t period, double blend = 0.6)
      : period_(period), blend_(blend) {
    ring_.reserve(period_);
  }
  Status Train(const std::vector<double>& series) override;
  void Observe(double value) override;
  double PredictNext() override;
  std::string name() const override { return "seasonal_naive"; }

  /// Observations currently held; never exceeds `period` (steady-state
  /// memory is O(period) regardless of how long the site runs).
  size_t history_size() const { return ring_.size(); }
  size_t history_capacity() const { return ring_.capacity(); }

 private:
  size_t period_;
  double blend_;
  /// Ring of the last `period_` observations: only the value one season
  /// back is ever read, so older history would just leak on long runs.
  /// `oldest_` indexes the season-old value (the next slot to overwrite).
  std::vector<double> ring_;
  size_t oldest_ = 0;
  EwmaPredictor level_{0.4};
};

/// Factory used by `SiteOptions`' default predictor.
std::unique_ptr<DemandPredictor> MakeSeasonalNaive(size_t period);

}  // namespace samya::predict

#endif  // SAMYA_PREDICT_PREDICTOR_H_
