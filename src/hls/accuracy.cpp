#include "hls/accuracy.hpp"

#include <cmath>
#include <stdexcept>

namespace reads::hls {

AccuracyReport evaluate_quantization(const nn::Model& reference,
                                     const QuantizedModel& quantized,
                                     const std::vector<tensor::Tensor>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("evaluate_quantization: no inputs");
  }
  const auto& out_shape = reference.output_shape();
  if (out_shape.size() != 2 || out_shape[1] != 2) {
    throw std::invalid_argument(
        "evaluate_quantization: model output must be (monitors, 2)");
  }
  const std::size_t monitors = out_shape[0];

  AccuracyReport report;
  report.frames = inputs.size();
  report.outputs_per_channel = inputs.size() * monitors;

  // Both sweeps run batched on the thread pool (workers reuse per-thread
  // scratch); the elementwise comparison is cheap and stays serial.
  const auto refs = reference.forward_batch(inputs);
  ForwardStats stats;
  const auto quants = quantized.forward_batch(inputs, &stats);
  report.saturation_events = stats.total_saturations();
  report.overflow_events = stats.total_overflows();

  std::size_t close_mi = 0;
  std::size_t close_rr = 0;
  double sum_mi = 0.0;
  double sum_rr = 0.0;
  for (std::size_t f = 0; f < inputs.size(); ++f) {
    const auto& ref = refs[f];
    const auto& quant = quants[f];
    for (std::size_t m = 0; m < monitors; ++m) {
      const double d_mi = std::fabs(quant[m * 2 + 0] - ref[m * 2 + 0]);
      const double d_rr = std::fabs(quant[m * 2 + 1] - ref[m * 2 + 1]);
      sum_mi += d_mi;
      sum_rr += d_rr;
      report.max_diff_mi = std::max(report.max_diff_mi, d_mi);
      report.max_diff_rr = std::max(report.max_diff_rr, d_rr);
      if (d_mi <= kAccuracyTolerance) ++close_mi; else ++report.outliers_mi;
      if (d_rr <= kAccuracyTolerance) ++close_rr; else ++report.outliers_rr;
    }
  }

  const auto n = static_cast<double>(report.outputs_per_channel);
  report.accuracy_mi = static_cast<double>(close_mi) / n;
  report.accuracy_rr = static_cast<double>(close_rr) / n;
  report.mean_diff_mi = sum_mi / n;
  report.mean_diff_rr = sum_rr / n;
  return report;
}

}  // namespace reads::hls
