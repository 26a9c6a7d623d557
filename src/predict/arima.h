#ifndef SAMYA_PREDICT_ARIMA_H_
#define SAMYA_PREDICT_ARIMA_H_

#include <deque>
#include <vector>

#include "predict/optimizer.h"
#include "predict/predictor.h"

namespace samya::predict {

/// Configuration for `ArimaPredictor`. Defaults match the evaluation in
/// EXPERIMENTS.md (ARIMA(3,1,2) on the resampled demand series).
struct ArimaOptions {
  int p = 3;  ///< autoregressive order
  int d = 1;  ///< differencing order (0 or 1 supported)
  int q = 2;  ///< moving-average order
  /// Minimize the conditional sum of |residuals| instead of squares: robust
  /// against the trace's heavy-tailed bursts, and aligned with the MAE
  /// metric Table 2a reports.
  bool robust_loss = false;
  NelderMeadOptions fit;
};

/// \brief ARIMA(p,d,q) forecaster fitted by conditional sum of squares.
///
/// The series is differenced `d` times; the ARMA(p,q) residual recursion
///   e_t = w_t - c - sum_i phi_i w_{t-i} - sum_j theta_j e_{t-j}
/// defines the CSS objective sum e_t^2, minimized with Nelder–Mead (the MA
/// terms make the gradient recursive, so a derivative-free fit is the
/// textbook route). One-step forecasts integrate the differencing back.
class ArimaPredictor : public DemandPredictor {
 public:
  explicit ArimaPredictor(ArimaOptions opts = {});

  Status Train(const std::vector<double>& series) override;
  void Observe(double value) override;
  double PredictNext() override;
  std::string name() const override { return "arima"; }

  /// Fitted parameters, for inspection: [c, phi_1..phi_p, theta_1..theta_q].
  const Vector& params() const { return params_; }
  double fit_css() const { return fit_css_; }

 private:
  /// Differenced view of a raw series.
  static std::vector<double> Difference(const std::vector<double>& raw, int d);

  /// CSS objective on the training (differenced) series.
  double Css(const Vector& params, const std::vector<double>& w) const;

  /// Recomputes the residual tail after new observations.
  void RefreshResiduals();

  ArimaOptions opts_;
  Vector params_;       // [c, phis..., thetas...]
  double fit_css_ = 0;
  bool trained_ = false;

  std::vector<double> raw_;   // full observed raw history
  std::vector<double> w_;     // differenced history
  std::vector<double> resid_; // residuals aligned with w_
};

}  // namespace samya::predict

#endif  // SAMYA_PREDICT_ARIMA_H_
