// Learned cost surrogate for the precision/reuse autotuner.
//
// rule4ml (PAPERS.md) shows that resource/latency prediction for hls4ml
// models is learnable from hand-engineered per-layer features. We need far
// less: resources and latency already have exact analytical models in
// src/hls/, so the only expensive quantity left is *quantized accuracy*,
// which requires a full compile + bit-exact batch. The Surrogate is a small
// ridge regression trained online on candidates the Evaluator has already
// validated; it predicts log(quantization error) from the candidate's
// feature vector so the tuner can rank a large proposal pool and validate
// only a shortlist.
//
// Thread safety: observe() and predict() may be called concurrently from
// ThreadPool workers (the tuner itself is sequential, but the TSan suite
// trains across the pool on purpose); all state is guarded by one mutex.
// The normal-equation solve is cached and only recomputed after new
// observations arrive.
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace reads::autotune {

/// Fixed-size feature vector (see SearchSpace::features for the layout).
inline constexpr std::size_t kFeatureCount = 10;
using FeatureVec = std::array<double, kFeatureCount>;

struct SurrogateConfig {
  /// predict() returns nullopt until this many observations are seen —
  /// an untrained surrogate must not silently rank candidates.
  std::size_t min_observations = 8;
};

class Surrogate {
 public:
  explicit Surrogate(SurrogateConfig config = {});

  /// Record one validated candidate: features plus the measured cost
  /// (quantization error, >= 0). Trains on log(cost + eps) so the model
  /// ranks across the orders of magnitude PTQ errors span.
  void observe(const FeatureVec& features, double cost);

  /// Predicted cost on the original (linear) scale, or nullopt while the
  /// surrogate is cold or the normal equations are singular.
  std::optional<double> predict(const FeatureVec& features) const;

  std::size_t observations() const;

  const SurrogateConfig& config() const noexcept { return cfg_; }

 private:
  /// Re-solve (XtX + lambda*n*I) w = Xty if observations arrived since the
  /// last solve. Caller holds mutex_.
  void refresh_locked() const;

  SurrogateConfig cfg_;
  mutable std::mutex mutex_;
  std::size_t count_ = 0;
  std::array<std::array<double, kFeatureCount>, kFeatureCount> xtx_{};
  std::array<double, kFeatureCount> xty_{};
  mutable std::array<double, kFeatureCount> weights_{};
  mutable bool dirty_ = false;
  mutable bool solved_ = false;
};

/// Spearman rank correlation of (predicted, measured) pairs with
/// average-rank tie handling. Returns 0 for fewer than 2 pairs or when
/// either side is constant. This is the surrogate-quality number
/// bench_autotune gates at >= 0.7.
double spearman(const std::vector<std::pair<double, double>>& pairs);

}  // namespace reads::autotune
