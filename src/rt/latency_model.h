#ifndef SAMYA_RT_LATENCY_MODEL_H_
#define SAMYA_RT_LATENCY_MODEL_H_

#include <array>
#include <cmath>
#include <string>

#include "common/random.h"
#include "common/time.h"

namespace samya::rt {

/// GCP regions used by the paper's evaluation (§5.2), plus the two extra US
/// regions MultiPaxSys uses for its 3-of-5-in-the-US placement.
enum class Region {
  kUsWest1 = 0,
  kUsCentral1,
  kUsEast1,
  kEuropeWest2,
  kAsiaEast2,
  kAustraliaSoutheast1,
  kSouthAmericaEast1,
};

inline constexpr int kNumRegions = 7;

const char* RegionName(Region r);

/// The five geo-distributed regions Samya's sites occupy in the paper.
inline constexpr std::array<Region, 5> kPaperRegions = {
    Region::kUsWest1, Region::kAsiaEast2, Region::kEuropeWest2,
    Region::kAustraliaSoutheast1, Region::kSouthAmericaEast1};

/// \brief One-way network latency model between GCP regions.
///
/// Base latencies are half of published inter-region RTT measurements;
/// `Sample` adds a small truncated-Gaussian jitter plus an exponential tail,
/// which reproduces the long-tailed per-message latency that drives the p95
/// and p99 columns of Table 2b.
///
/// Shared by both runtime backends: the simulator draws delivery delays from
/// it directly, and the real backend's in-process netem layer holds each
/// datagram at its receiver for the same sampled duration before delivering
/// it — which is what makes sim-predicted and real-measured latency
/// comparable on one box (EXPERIMENTS.md).
class LatencyModel {
 public:
  LatencyModel();

  /// Deterministic base one-way latency between two regions.
  Duration Base(Region from, Region to) const {
    return base_[static_cast<int>(from)][static_cast<int>(to)];
  }

  /// Base latency plus stochastic jitter drawn from `rng`. Inline: sampled
  /// once per message sent.
  Duration Sample(Region from, Region to, Rng& rng) const {
    const Duration base = Base(from, to);
    Duration jitter = 0;
    if (jitter_fraction_ > 0) {
      jitter = static_cast<Duration>(static_cast<double>(base) *
                                     jitter_fraction_ *
                                     std::abs(rng.NextGaussian()));
    }
    Duration tail = 0;
    if (tail_mean_ > 0) {
      tail = static_cast<Duration>(
          rng.Exponential(static_cast<double>(tail_mean_)));
    }
    return base + jitter + tail;
  }

  /// Scales jitter magnitude; 0 disables jitter entirely (useful in tests).
  void set_jitter_fraction(double f) { jitter_fraction_ = f; }
  /// Mean of the exponential tail component, microseconds.
  void set_tail_mean(Duration d) { tail_mean_ = d; }

 private:
  std::array<std::array<Duration, kNumRegions>, kNumRegions> base_;
  double jitter_fraction_ = 0.05;
  Duration tail_mean_ = Millis(1) / 2;
};

}  // namespace samya::rt

#endif  // SAMYA_RT_LATENCY_MODEL_H_
