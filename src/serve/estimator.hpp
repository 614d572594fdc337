// A replica's RFC-6298-style per-frame service-time estimator.
//
// One EWMA for the mean and one for the mean absolute deviation, exactly
// the SRTT/RTTVAR shape of RFC 6298 with the gateway's historical gains
// (alpha 0.2, beta 0.25). Each serve::Replica owns one and folds in every
// batch's per-frame service time; the gateway's deadline admission (the
// one admission point, also for cluster ticks) reads it as
//   backlog x mean + mean + 4 x deviation,
// i.e. admission is gated on a high quantile, not the mean.
//
// Fields are atomics with relaxed ordering: the replica worker is the one
// writer, and gateway readers only need a recent value, not a synchronized
// pair.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

namespace reads::serve {

class ServiceEstimator {
 public:
  /// Historical gateway gains; RFC 6298 itself uses 1/8 and 1/4.
  static constexpr double kEwmaAlpha = 0.2;
  static constexpr double kVarBeta = 0.25;
  /// Initial deviation as a fraction of the seed estimate; shrinks as real
  /// observations arrive.
  static constexpr double kInitialVarFrac = 0.25;

  explicit ServiceEstimator(double initial_ms = 1.0) noexcept
      : est_ms_(std::max(1e-6, initial_ms)),
        var_ms_(kInitialVarFrac * std::max(1e-6, initial_ms)) {}

  /// Fold one observation (ms) into the mean and deviation EWMAs. The
  /// deviation is measured against the *pre-update* mean, as in RFC 6298.
  void observe(double observed_ms) noexcept {
    const double est = est_ms_.load(std::memory_order_relaxed);
    est_ms_.store(
        std::max(1e-6, (1.0 - kEwmaAlpha) * est + kEwmaAlpha * observed_ms),
        std::memory_order_relaxed);
    const double var = var_ms_.load(std::memory_order_relaxed);
    var_ms_.store(
        (1.0 - kVarBeta) * var + kVarBeta * std::abs(observed_ms - est),
        std::memory_order_relaxed);
  }

  double est_ms() const noexcept {
    return est_ms_.load(std::memory_order_relaxed);
  }
  double var_ms() const noexcept {
    return var_ms_.load(std::memory_order_relaxed);
  }

  /// Predicted ms until a newly arriving item completes behind `backlog`
  /// queued items: backlog x mean + own mean + 4 x deviation.
  double predicted_ms(std::size_t backlog) const noexcept {
    const double est = est_ms();
    return static_cast<double>(backlog) * est + est + 4.0 * var_ms();
  }

 private:
  std::atomic<double> est_ms_;
  std::atomic<double> var_ms_;
};

}  // namespace reads::serve
