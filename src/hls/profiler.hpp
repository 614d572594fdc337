// Activation/weight range profiling — the measurement step behind the
// paper's layer-based precision customization ("we re-evaluated the maximum
// absolute output value generated inside each individual layer ... and
// adjusted each layer's precision individually").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hls/precision.hpp"
#include "nn/model.hpp"

namespace reads::hls {

/// Largest bucket of Profile::act_int_bits_histogram.
inline constexpr int kMaxActIntBits = 24;

/// Histogram bucket of one activation v: clamp(int_bits_for(|v|), 1,
/// kMaxActIntBits), read from the float's exponent field. For finite
/// |v| > 0, int_bits_for(|v|) is floor(log2 |v|) + 2, the unbiased exponent
/// plus 2 (its 1e-9 guard never crosses a power of two: the float just
/// below 2^e is 2^-24 below it, relatively); zeros and subnormals clamp to
/// 1. NaN and inf go through int_bits_for itself.
std::size_t act_int_bits_bucket(float v) noexcept;

/// Observed dynamic ranges, keyed by node name.
struct Profile {
  std::map<std::string, double> max_activation;  ///< max |output| per node
  std::map<std::string, double> max_weight;      ///< max |w| per param layer
  std::map<std::string, double> max_bias;
  /// Per node: histogram over "integer bits needed" (index = int bits,
  /// sign included; index 0 unused). Lets callers size integer bits to a
  /// coverage quantile instead of the absolute maximum.
  std::map<std::string, std::array<std::uint64_t, kMaxActIntBits + 1>>
      act_int_bits_histogram;
  std::size_t calibration_frames = 0;

  /// Smallest integer-bit count covering at least `coverage` of the node's
  /// observed activations (coverage = 1.0 reproduces the max-abs rule).
  int int_bits_for_coverage(const std::string& node, double coverage) const;
};

/// Run the float model over calibration inputs and collect ranges.
Profile profile_model(const nn::Model& model,
                      const std::vector<tensor::Tensor>& calibration_inputs);

/// Build the paper's layer-based plan: every layer keeps `total_bits`, with
/// integer bits per layer sized to the profiled maxima. `extra_int_bits`
/// adds guard bits to the activation integer part (Fig. 5b studies how one
/// extra bit halves the overflow outliers). `coverage` sizes activation
/// integer bits to that quantile of observed values instead of the max
/// (1.0 = the paper's max-abs rule); trading rare saturations for fraction
/// precision is the calibration ablation of `bench_calibration`.
QuantConfig layer_based_config(const nn::Model& model, const Profile& profile,
                               int total_bits, int extra_int_bits = 0,
                               double coverage = 1.0);

}  // namespace reads::hls
