#include "predict/predictor.h"

namespace samya::predict {

Status RandomWalkPredictor::Train(const std::vector<double>& series) {
  if (!series.empty()) last_ = series.back();
  return Status::OK();
}

Status EwmaPredictor::Train(const std::vector<double>& series) {
  if (alpha_ <= 0.0 || alpha_ > 1.0) {
    return Status::InvalidArgument("ewma alpha must be in (0,1]");
  }
  for (double v : series) Observe(v);
  return Status::OK();
}

void EwmaPredictor::Observe(double value) {
  if (!seeded_) {
    ewma_ = value;
    seeded_ = true;
  } else {
    ewma_ = alpha_ * value + (1 - alpha_) * ewma_;
  }
}

Status SeasonalNaivePredictor::Train(const std::vector<double>& series) {
  if (period_ == 0) return Status::InvalidArgument("period must be positive");
  for (double v : series) Observe(v);
  return Status::OK();
}

void SeasonalNaivePredictor::Observe(double value) {
  if (ring_.size() < period_) {
    ring_.push_back(value);
  } else if (period_ > 0) {
    ring_[oldest_] = value;
    oldest_ = (oldest_ + 1) % period_;
  }
  level_.Observe(value);
}

double SeasonalNaivePredictor::PredictNext() {
  if (period_ == 0 || ring_.size() < period_) return level_.PredictNext();
  // The value one season ahead of now is the oldest one in the ring.
  const double seasonal = ring_[oldest_];
  const double level = level_.PredictNext();
  const double p = blend_ * seasonal + (1 - blend_) * level;
  return p < 0 ? 0 : p;
}

std::unique_ptr<DemandPredictor> MakeSeasonalNaive(size_t period) {
  return std::make_unique<SeasonalNaivePredictor>(period);
}

}  // namespace samya::predict
