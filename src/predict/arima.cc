#include "predict/arima.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace samya::predict {

ArimaPredictor::ArimaPredictor(ArimaOptions opts) : opts_(opts) {}

std::vector<double> ArimaPredictor::Difference(const std::vector<double>& raw,
                                               int d) {
  std::vector<double> w = raw;
  for (int k = 0; k < d; ++k) {
    std::vector<double> next;
    next.reserve(w.size() > 0 ? w.size() - 1 : 0);
    for (size_t i = 1; i < w.size(); ++i) next.push_back(w[i] - w[i - 1]);
    w = std::move(next);
  }
  return w;
}

double ArimaPredictor::Css(const Vector& params,
                           const std::vector<double>& w) const {
  const int p = opts_.p, q = opts_.q;
  const size_t start = static_cast<size_t>(std::max(p, q));
  if (w.size() <= start) return 0.0;

  const double c = params[0];
  const double* phi = params.data() + 1;
  const double* theta = params.data() + 1 + p;

  std::vector<double> e(w.size(), 0.0);
  double acc = 0.0;
  for (size_t t = start; t < w.size(); ++t) {
    double pred = c;
    for (int i = 1; i <= p; ++i) pred += phi[i - 1] * w[t - static_cast<size_t>(i)];
    for (int j = 1; j <= q; ++j) pred += theta[j - 1] * e[t - static_cast<size_t>(j)];
    e[t] = w[t] - pred;
    acc += opts_.robust_loss ? std::abs(e[t]) : e[t] * e[t];
  }
  // Soft penalty pushing AR/MA weights toward the stationary region; CSS
  // alone can wander into explosive parameterizations on short series.
  double penalty = 0.0;
  double ar_mass = 0.0, ma_mass = 0.0;
  for (int i = 0; i < p; ++i) ar_mass += std::abs(phi[i]);
  for (int j = 0; j < q; ++j) ma_mass += std::abs(theta[j]);
  if (ar_mass > 1.5) penalty += (ar_mass - 1.5) * (ar_mass - 1.5);
  if (ma_mass > 1.5) penalty += (ma_mass - 1.5) * (ma_mass - 1.5);
  const double n = static_cast<double>(w.size() - start);
  return acc / n * (1.0 + penalty);
}

Status ArimaPredictor::Train(const std::vector<double>& series) {
  if (opts_.p < 0 || opts_.q < 0 || opts_.d < 0 || opts_.d > 1) {
    return Status::InvalidArgument("arima: need p,q >= 0 and d in {0,1}");
  }
  const size_t min_len =
      static_cast<size_t>(std::max(opts_.p, opts_.q) + opts_.d + 8);
  if (series.size() < min_len) {
    return Status::InvalidArgument("arima: series too short to fit");
  }
  raw_ = series;
  w_ = Difference(raw_, opts_.d);

  Vector x0(1 + static_cast<size_t>(opts_.p + opts_.q), 0.0);
  // Warm start: small positive lag-1 AR weight.
  if (opts_.p > 0) x0[1] = 0.3;
  auto objective = [this](const Vector& x) { return Css(x, w_); };
  NelderMeadResult res = NelderMead(objective, x0, opts_.fit);
  params_ = res.x;
  fit_css_ = res.fx;
  trained_ = true;
  RefreshResiduals();
  return Status::OK();
}

void ArimaPredictor::RefreshResiduals() {
  const int p = opts_.p, q = opts_.q;
  const size_t start = static_cast<size_t>(std::max(p, q));
  resid_.assign(w_.size(), 0.0);
  if (!trained_ || w_.size() <= start) return;
  const double c = params_[0];
  const double* phi = params_.data() + 1;
  const double* theta = params_.data() + 1 + p;
  for (size_t t = start; t < w_.size(); ++t) {
    double pred = c;
    for (int i = 1; i <= p; ++i) pred += phi[i - 1] * w_[t - static_cast<size_t>(i)];
    for (int j = 1; j <= q; ++j) pred += theta[j - 1] * resid_[t - static_cast<size_t>(j)];
    resid_[t] = w_[t] - pred;
  }
}

void ArimaPredictor::Observe(double value) {
  raw_.push_back(value);
  if (opts_.d == 0) {
    w_.push_back(value);
  } else if (raw_.size() >= 2) {
    w_.push_back(raw_[raw_.size() - 1] - raw_[raw_.size() - 2]);
  } else {
    return;
  }
  // Incremental residual for the newly appended w_.
  const int p = opts_.p, q = opts_.q;
  const size_t t = w_.size() - 1;
  resid_.resize(w_.size(), 0.0);
  if (!trained_ || t < static_cast<size_t>(std::max(p, q))) return;
  const double c = params_[0];
  const double* phi = params_.data() + 1;
  const double* theta = params_.data() + 1 + p;
  double pred = c;
  for (int i = 1; i <= p; ++i) pred += phi[i - 1] * w_[t - static_cast<size_t>(i)];
  for (int j = 1; j <= q; ++j) pred += theta[j - 1] * resid_[t - static_cast<size_t>(j)];
  resid_[t] = w_[t] - pred;
}

double ArimaPredictor::PredictNext() {
  if (!trained_ || w_.size() < static_cast<size_t>(std::max(opts_.p, opts_.q))) {
    return raw_.empty() ? 0.0 : std::max(0.0, raw_.back());
  }
  const int p = opts_.p, q = opts_.q;
  const double c = params_[0];
  const double* phi = params_.data() + 1;
  const double* theta = params_.data() + 1 + p;
  const size_t n = w_.size();
  double w_hat = c;
  for (int i = 1; i <= p; ++i) {
    if (n >= static_cast<size_t>(i)) w_hat += phi[i - 1] * w_[n - static_cast<size_t>(i)];
  }
  for (int j = 1; j <= q; ++j) {
    if (n >= static_cast<size_t>(j)) w_hat += theta[j - 1] * resid_[n - static_cast<size_t>(j)];
  }
  double next = opts_.d == 0 ? w_hat : raw_.back() + w_hat;
  return next < 0 ? 0 : next;
}

}  // namespace samya::predict
