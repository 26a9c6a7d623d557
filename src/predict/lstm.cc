#include "predict/lstm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"

namespace samya::predict {

namespace {
double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

LstmPredictor::LstmPredictor(LstmOptions opts)
    : opts_(opts), rng_(opts.seed) {
  const size_t h = opts_.hidden;
  wx_ = Matrix(4 * h, kInputDim);
  wh_ = Matrix(4 * h, h);
  b_.assign(4 * h, 0.0);
  wy_.assign(h, 0.0);

  const double sx = std::sqrt(6.0 / static_cast<double>(kInputDim + h));
  const double sh = std::sqrt(6.0 / static_cast<double>(h + h));
  wx_.RandomInit(rng_, sx);
  wh_.RandomInit(rng_, sh);
  for (double& v : wy_) v = rng_.Uniform(-sh, sh);
  // Forget-gate bias starts positive: standard trick to preserve memory
  // early in training.
  for (size_t j = h; j < 2 * h; ++j) b_[j] = 1.0;

  gwx_ = Matrix(4 * h, kInputDim);
  gwh_ = Matrix(4 * h, h);
  gb_.assign(4 * h, 0.0);
  gwy_.assign(h, 0.0);

  adam_wx_ = std::make_unique<AdamState>(wx_.data().size(), opts_.learning_rate);
  adam_wh_ = std::make_unique<AdamState>(wh_.data().size(), opts_.learning_rate);
  adam_b_ = std::make_unique<AdamState>(b_.size(), opts_.learning_rate);
  adam_wy_ = std::make_unique<AdamState>(wy_.size(), opts_.learning_rate);
  adam_by_ = std::make_unique<AdamState>(1, opts_.learning_rate);
}

Vector LstmPredictor::FeaturesAt(size_t abs_index, double normalized) const {
  const double phase = 2.0 * M_PI *
                       static_cast<double>(abs_index % opts_.period) /
                       static_cast<double>(opts_.period);
  return {normalized, std::sin(phase), std::cos(phase)};
}

double LstmPredictor::Forward(const std::vector<Vector>& xs,
                              std::vector<StepCache>* cache) const {
  const size_t h = opts_.hidden;
  Vector hprev(h, 0.0), cprev(h, 0.0);
  if (cache != nullptr) cache->resize(xs.size());

  for (size_t t = 0; t < xs.size(); ++t) {
    Vector z = b_;
    wx_.MultiplyAdd(xs[t], z);
    wh_.MultiplyAdd(hprev, z);
    Vector i(h), f(h), o(h), g(h), c(h), hh(h), tc(h);
    for (size_t j = 0; j < h; ++j) {
      i[j] = Sigmoid(z[j]);
      f[j] = Sigmoid(z[h + j]);
      o[j] = Sigmoid(z[2 * h + j]);
      g[j] = std::tanh(z[3 * h + j]);
      c[j] = f[j] * cprev[j] + i[j] * g[j];
      tc[j] = std::tanh(c[j]);
      hh[j] = o[j] * tc[j];
    }
    if (cache != nullptr) {
      (*cache)[t] = StepCache{xs[t], i, f, o, g, c, hh, tc};
    }
    hprev = std::move(hh);
    cprev = std::move(c);
  }
  return Dot(wy_, hprev) + by_;
}

void LstmPredictor::Backward(const std::vector<StepCache>& cache, double dy) {
  const size_t h = opts_.hidden;
  const size_t L = cache.size();
  SAMYA_CHECK_GT(L, 0u);

  // Output layer gradients.
  for (size_t j = 0; j < h; ++j) gwy_[j] += dy * cache[L - 1].h[j];
  gby_ += dy;

  Vector dh(h, 0.0), dc(h, 0.0);
  for (size_t j = 0; j < h; ++j) dh[j] = dy * wy_[j];

  const Vector zeros(h, 0.0);
  for (size_t t = L; t-- > 0;) {
    const StepCache& s = cache[t];
    const Vector& cprev_vec = t > 0 ? cache[t - 1].c : zeros;
    const Vector& hprev_vec = t > 0 ? cache[t - 1].h : zeros;

    Vector dz(4 * h, 0.0);
    for (size_t j = 0; j < h; ++j) {
      const double do_ = dh[j] * s.tanh_c[j];
      const double dtc = dh[j] * s.o[j] * (1 - s.tanh_c[j] * s.tanh_c[j]) + dc[j];
      const double df = dtc * cprev_vec[j];
      const double di = dtc * s.g[j];
      const double dg = dtc * s.i[j];
      dc[j] = dtc * s.f[j];  // carry to t-1

      dz[j] = di * s.i[j] * (1 - s.i[j]);
      dz[h + j] = df * s.f[j] * (1 - s.f[j]);
      dz[2 * h + j] = do_ * s.o[j] * (1 - s.o[j]);
      dz[3 * h + j] = dg * (1 - s.g[j] * s.g[j]);
    }

    gwx_.AddOuter(dz, s.x);
    gwh_.AddOuter(dz, hprev_vec);
    AxpyV(dz, 1.0, gb_);

    // dh for the previous step: Wh^T dz.
    std::fill(dh.begin(), dh.end(), 0.0);
    wh_.TransposeMultiplyAdd(dz, dh);
  }
}

void LstmPredictor::ApplyGradients() {
  // Global norm clip across all tensors.
  double sq = gwx_.SquaredNorm() + gwh_.SquaredNorm() + SquaredNormV(gb_) +
              SquaredNormV(gwy_) + gby_ * gby_;
  const double norm = std::sqrt(sq);
  if (norm > opts_.clip_norm && norm > 0) {
    const double s = opts_.clip_norm / norm;
    gwx_.Scale(s);
    gwh_.Scale(s);
    ScaleV(gb_, s);
    ScaleV(gwy_, s);
    gby_ *= s;
  }
  adam_wx_->Update(wx_.data(), gwx_.data());
  adam_wh_->Update(wh_.data(), gwh_.data());
  adam_b_->Update(b_, gb_);
  adam_wy_->Update(wy_, gwy_);
  Vector by_vec = {by_}, gby_vec = {gby_};
  adam_by_->Update(by_vec, gby_vec);
  by_ = by_vec[0];

  gwx_.Zero();
  gwh_.Zero();
  std::fill(gb_.begin(), gb_.end(), 0.0);
  std::fill(gwy_.begin(), gwy_.end(), 0.0);
  gby_ = 0.0;
}

Status LstmPredictor::Train(const std::vector<double>& series) {
  if (series.size() < opts_.window + 2) {
    return Status::InvalidArgument("lstm: series shorter than window");
  }
  history_ = series;

  // Normalization statistics from the training series.
  mean_ = std::accumulate(series.begin(), series.end(), 0.0) /
          static_cast<double>(series.size());
  double var = 0.0;
  for (double v : series) var += (v - mean_) * (v - mean_);
  std_ = std::sqrt(var / static_cast<double>(series.size()));
  if (std_ < 1e-9) std_ = 1.0;

  // Training examples: window ending at t predicts t+1.
  std::vector<size_t> ends;  // index of last input element
  for (size_t t = opts_.window - 1; t + 1 < series.size(); t += opts_.stride) {
    ends.push_back(t);
  }

  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic RNG.
    for (size_t i = ends.size(); i > 1; --i) {
      const size_t j = rng_.NextUint64(i);
      std::swap(ends[i - 1], ends[j]);
    }
    double mse = 0.0;
    for (size_t end : ends) {
      std::vector<Vector> xs(opts_.window);
      for (size_t k = 0; k < opts_.window; ++k) {
        const size_t idx = end - opts_.window + 1 + k;
        xs[k] = FeaturesAt(idx, Normalize(series[idx]));
      }
      std::vector<StepCache> cache;
      const double y = Forward(xs, &cache);
      const double target = Normalize(series[end + 1]);
      const double err = y - target;
      mse += err * err;
      Backward(cache, 2.0 * err);
      ApplyGradients();
    }
    final_train_mse_ = mse / static_cast<double>(ends.size());
  }
  trained_ = true;
  return Status::OK();
}

void LstmPredictor::Observe(double value) { history_.push_back(value); }

double LstmPredictor::PredictNext() {
  if (!trained_ || history_.size() < opts_.window) {
    return history_.empty() ? 0.0 : std::max(0.0, history_.back());
  }
  std::vector<Vector> xs(opts_.window);
  const size_t begin = history_.size() - opts_.window;
  for (size_t k = 0; k < opts_.window; ++k) {
    xs[k] = FeaturesAt(begin + k, Normalize(history_[begin + k]));
  }
  const double y = Forward(xs, nullptr);
  const double pred = Denormalize(y);
  return pred < 0 ? 0 : pred;
}

}  // namespace samya::predict
