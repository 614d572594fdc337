// The paper's quantization accuracy metrics.
//
// Accuracy (Table II): an output is "close enough" when the quantized model
// output is within 0.20 of the float reference (full range is [0, 1]);
// accuracy is the fraction of close-enough outputs, reported separately for
// the MI channel and the RR channel of every monitor.
//
// Fig. 5a: mean |quantized - float| per channel vs total bits.
// Fig. 5b: outliers (|diff| > threshold, "abnormal points") vs total bits.
#pragma once

#include <cstddef>
#include <vector>

#include "hls/qmodel.hpp"
#include "nn/model.hpp"

namespace reads::hls {

/// The paper's accuracy tolerance: |quantized - float| <= 0.20 is close.
inline constexpr double kAccuracyTolerance = 0.20;

struct AccuracyReport {
  double accuracy_mi = 0.0;      ///< fraction within tolerance, MI channel
  double accuracy_rr = 0.0;
  double mean_diff_mi = 0.0;     ///< mean |quant - float|
  double mean_diff_rr = 0.0;
  double max_diff_mi = 0.0;
  double max_diff_rr = 0.0;
  std::size_t outliers_mi = 0;   ///< |diff| > tolerance counts
  std::size_t outliers_rr = 0;
  std::size_t frames = 0;
  std::size_t outputs_per_channel = 0;  ///< frames * monitors
  std::size_t saturation_events = 0;    ///< write-out saturations observed
  std::size_t overflow_events = 0;      ///< accumulator wrap-arounds observed

  std::size_t outliers_total() const noexcept {
    return outliers_mi + outliers_rr;
  }
};

/// Compare the quantized firmware against its float reference over a set of
/// (already standardized) input frames at kAccuracyTolerance.
/// Outputs must be (monitors, 2) tensors: channel 0 = MI, channel 1 = RR.
AccuracyReport evaluate_quantization(const nn::Model& reference,
                                     const QuantizedModel& quantized,
                                     const std::vector<tensor::Tensor>& inputs);

}  // namespace reads::hls
