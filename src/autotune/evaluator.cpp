#include "autotune/evaluator.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "hls/accuracy.hpp"
#include "hls/qmodel.hpp"
#include "hls/resource.hpp"

namespace reads::autotune {

Evaluator::Evaluator(const SearchSpace& space) : space_(space) {}

Evaluator::Evaluator(const SearchSpace& space, const nn::Model& reference,
                     std::vector<tensor::Tensor> frames)
    : space_(space),
      reference_(&reference),
      frames_(std::move(frames)) {
  if (frames_.empty()) {
    throw std::invalid_argument("Evaluator: no held-out frames");
  }
  reference_outputs_ = reference_->forward_batch(frames_);
}

CheapEval Evaluator::score_firmware(const hls::FirmwareModel& fw) {
  CheapEval e;
  const auto res = hls::ResourceModel().estimate(fw);
  const auto lat = hls::LatencyModel().estimate(fw);
  e.latency_ms = lat.total_ms();
  e.total_cycles = lat.total_cycles;
  e.aluts = res.total_aluts;
  e.dsps = res.total_dsps;
  e.ram_blocks = res.total_ram_blocks;
  e.bram_bits = res.total_bram_bits;
  e.alut_utilization = res.alut_utilization();
  e.dsp_utilization = res.dsp_utilization();
  e.fits = res.fits();
  e.meets_deadline = e.latency_ms <= kDeadlineMs;
  e.layer_cycles = lat.layers;
  for (const auto& layer : fw.layers) e.mults += layer.instantiated_mults;
  return e;
}

CheapEval Evaluator::cheap(const Candidate& candidate) const {
  return score_firmware(space_.skeleton(candidate));
}

Validation Evaluator::validate(const Candidate& candidate) const {
  if (!can_validate()) {
    throw std::logic_error(
        "Evaluator::validate: constructed cheap-only (no reference model)");
  }
  const hls::HlsConfig cfg = space_.materialize(candidate);
  const hls::QuantizedModel quantized(hls::compile(*reference_, cfg));

  Validation v;
  v.cheap = score_firmware(quantized.firmware());
  v.frames = frames_.size();

  hls::ForwardStats stats;
  const auto outs = quantized.forward_batch(frames_, &stats);
  v.saturations = stats.total_saturations();
  v.overflows = stats.total_overflows();

  // Outputs of shape (monitors, 2) get the paper's per-channel accuracy
  // (channel 0 = MI, channel 1 = RR); any other shape scores overall into
  // both accuracy fields.
  const auto& shape = reference_outputs_.front().shape();
  const bool two_channel = shape.size() == 2 && shape[1] == 2;
  double sum = 0.0;
  std::size_t n = 0;
  std::size_t close_mi = 0;
  std::size_t close_rr = 0;
  std::size_t n_mi = 0;
  std::size_t n_rr = 0;
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    const auto& ref = reference_outputs_[f];
    const auto& q = outs[f];
    for (std::size_t i = 0; i < ref.numel(); ++i) {
      const double d = std::fabs(static_cast<double>(q[i]) -
                                 static_cast<double>(ref[i]));
      sum += d;
      ++n;
      v.max_diff = std::max(v.max_diff, d);
      const bool close = d <= hls::kAccuracyTolerance;
      if (!close) ++v.outliers;
      const bool is_rr = two_channel && (i % 2 == 1);
      if (is_rr) {
        ++n_rr;
        if (close) ++close_rr;
      } else {
        ++n_mi;
        if (close) ++close_mi;
      }
    }
  }
  v.mean_diff = n > 0 ? sum / static_cast<double>(n) : 0.0;
  v.accuracy_mi =
      n_mi > 0 ? static_cast<double>(close_mi) / static_cast<double>(n_mi)
               : 0.0;
  v.accuracy_rr = two_channel ? (n_rr > 0 ? static_cast<double>(close_rr) /
                                                static_cast<double>(n_rr)
                                          : 0.0)
                              : v.accuracy_mi;
  return v;
}

}  // namespace reads::autotune
