#ifndef SAMYA_PREDICT_LSTM_H_
#define SAMYA_PREDICT_LSTM_H_

#include <memory>
#include <vector>

#include "predict/matrix.h"
#include "predict/optimizer.h"
#include "predict/predictor.h"

namespace samya::predict {

/// Configuration for `LstmPredictor`.
struct LstmOptions {
  size_t window = 32;       ///< input sequence length (epochs of history)
  size_t hidden = 24;       ///< LSTM hidden units
  size_t period = 288;      ///< seasonal period fed as sin/cos features
  int epochs = 4;           ///< training passes over the series
  size_t stride = 3;        ///< subsampling stride between training sequences
  double learning_rate = 5e-3;
  double clip_norm = 5.0;   ///< global gradient-norm clip
  uint64_t seed = 1;        ///< weight init + shuffle seed
};

/// \brief From-scratch single-layer LSTM forecaster (the paper's chosen
/// Prediction Module; Table 2a).
///
/// Input features per timestep: the z-normalized demand value plus
/// sin/cos of the position within the seasonal period — the phase features
/// let the recurrent model key on time-of-day, which is what beats ARIMA on
/// periodic cloud demand. Trained with truncated BPTT over fixed windows and
/// Adam, gradient-norm clipped. Deterministic given `seed`.
class LstmPredictor : public DemandPredictor {
 public:
  explicit LstmPredictor(LstmOptions opts = {});

  Status Train(const std::vector<double>& series) override;
  void Observe(double value) override;
  double PredictNext() override;
  std::string name() const override { return "lstm"; }

  /// Training MSE (normalized units) of the final epoch, for inspection.
  double final_train_mse() const { return final_train_mse_; }

 private:
  static constexpr size_t kInputDim = 3;

  struct StepCache {
    Vector x, i, f, o, g, c, h, tanh_c;
  };

  Vector FeaturesAt(size_t abs_index, double normalized_value) const;
  /// Runs the forward pass over a feature sequence; fills `cache` when given.
  double Forward(const std::vector<Vector>& xs,
                 std::vector<StepCache>* cache) const;
  /// Backprop of d(loss)/d(output)=dy through the cached forward pass.
  void Backward(const std::vector<StepCache>& cache, double dy);
  void ApplyGradients();
  double Normalize(double v) const { return (v - mean_) / std_; }
  double Denormalize(double z) const { return z * std_ + mean_; }

  LstmOptions opts_;
  Rng rng_;

  // Parameters. Gates are packed [i; f; o; g] along rows (4H x *).
  Matrix wx_, wh_;
  Vector b_;
  Vector wy_;
  double by_ = 0.0;

  // Gradient accumulators (same shapes).
  Matrix gwx_, gwh_;
  Vector gb_, gwy_;
  double gby_ = 0.0;

  // Adam state per tensor.
  std::unique_ptr<AdamState> adam_wx_, adam_wh_, adam_b_, adam_wy_, adam_by_;

  double mean_ = 0.0, std_ = 1.0;
  bool trained_ = false;
  double final_train_mse_ = 0.0;
  std::vector<double> history_;
};

}  // namespace samya::predict

#endif  // SAMYA_PREDICT_LSTM_H_
