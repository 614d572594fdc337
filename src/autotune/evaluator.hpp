// Candidate evaluation: a microsecond-cheap analytical screen and the
// expensive ground-truth validation.
//
// cheap():    ResourceModel + LatencyModel on a SearchSpace::skeleton() —
//             exact (the models read only geometry/specs/reuse) without
//             re-quantizing a single weight. Used to discard candidates
//             that cannot fit the device or the deadline before anything
//             expensive runs.
// validate(): the real codesign loop — materialize -> hls::compile ->
//             bit-exact QuantizedModel -> forward_batch over held-out
//             frames (PR 6 SIMD kernels + ThreadPool) compared against the
//             cached float reference outputs. This is the cost the
//             surrogate learns to predict.
//
// Both score against the paper's deployment (Table II): the Arria 10 SX 660
// budget (hls::ResourceModel's default device) and the 3 ms deadline, with
// the default resource and latency model parameters.
#pragma once

#include <cstddef>
#include <vector>

#include "autotune/space.hpp"
#include "hls/latency.hpp"
#include "nn/model.hpp"
#include "tensor/tensor.hpp"

namespace reads::autotune {

/// The paper's control-loop deadline every candidate is scored against.
inline constexpr double kDeadlineMs = 3.0;

/// Analytical screen of one candidate.
struct CheapEval {
  double latency_ms = 0.0;
  std::size_t total_cycles = 0;
  std::size_t aluts = 0;
  std::size_t dsps = 0;
  std::size_t ram_blocks = 0;
  std::size_t bram_bits = 0;
  std::size_t mults = 0;  ///< instantiated multipliers, all layers
  double alut_utilization = 0.0;
  double dsp_utilization = 0.0;
  bool fits = false;
  bool meets_deadline = false;
  /// Per-layer cycle breakdown (greedy reuse descent picks its target from
  /// this).
  std::vector<hls::LayerLatency> layer_cycles;

  bool feasible() const noexcept { return fits && meets_deadline; }
};

/// Ground-truth validation of one candidate.
struct Validation {
  CheapEval cheap;  ///< scored on the *compiled* firmware, not a skeleton
  double accuracy_mi = 0.0;
  double accuracy_rr = 0.0;
  double mean_diff = 0.0;  ///< mean |quant - float| over all outputs
  double max_diff = 0.0;
  std::size_t outliers = 0;
  std::size_t saturations = 0;
  std::size_t overflows = 0;
  std::size_t frames = 0;

  /// The surrogate's target cost.
  double quant_err() const noexcept { return mean_diff; }
};

class Evaluator {
 public:
  /// Cheap-only evaluator (no reference model): validate() throws. Used by
  /// bench_reuse_ablation, which only sweeps resources/latency.
  explicit Evaluator(const SearchSpace& space);

  /// Full evaluator. `frames` are already-standardized held-out inputs;
  /// the float reference outputs are computed once here and reused for
  /// every validation. `reference` must outlive the evaluator.
  Evaluator(const SearchSpace& space, const nn::Model& reference,
            std::vector<tensor::Tensor> frames);

  CheapEval cheap(const Candidate& candidate) const;
  Validation validate(const Candidate& candidate) const;

  bool can_validate() const noexcept { return reference_ != nullptr; }
  const SearchSpace& space() const noexcept { return space_; }

  /// Score an already-compiled firmware against the deployment budget
  /// (also used by the Requalifier's pre-publication budget guard).
  static CheapEval score_firmware(const hls::FirmwareModel& fw);

 private:
  const SearchSpace& space_;
  const nn::Model* reference_ = nullptr;
  std::vector<tensor::Tensor> frames_;
  std::vector<tensor::Tensor> reference_outputs_;
};

}  // namespace reads::autotune
