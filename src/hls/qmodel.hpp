// Bit-accurate executor for a FirmwareModel.
//
// All arithmetic is integer: activations and weights are raw two's-
// complement words at their layer's FixedSpec scaling; multiply-accumulate
// happens in a wide (int64) accumulator exactly like an HLS accumulator
// sized to avoid overflow; the write-out re-quantizes into the layer's
// activation spec (round-to-nearest, saturating), which is where the
// paper's quantization error and overflow outliers come from.
//
// Hot path: forward_raw() runs all layers over a per-thread scratch arena
// (one flat int64 block, each layer's slab placed at construction so slabs
// whose lifetimes do not overlap share words — zero allocations per frame)
// and dispatches Dense/Conv1D through blocked transposed-weight kernels (see
// qkernels.hpp). forward_raw_reference() keeps the original
// per-layer-vector implementation; the two are bit-identical (outputs and
// ForwardStats counters), which tests assert and bench_kernels times.
//
// Sigmoid is evaluated through a 1024-entry lookup table over [-8, 8),
// matching the hls4ml implementation of activation tables.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hls/firmware.hpp"
#include "hls/lanes.hpp"
#include "tensor/tensor.hpp"

namespace reads::hls {

using tensor::Tensor;

/// Per-forward instrumentation (overflow analysis for Fig. 5b).
struct ForwardStats {
  /// Saturation events at layer write-out, per firmware layer.
  std::vector<std::size_t> saturations;
  /// Accumulator wrap-arounds ("inner layer overflows"), per layer.
  std::vector<std::size_t> overflows;
  std::size_t total_saturations() const noexcept {
    std::size_t n = 0;
    for (auto s : saturations) n += s;
    return n;
  }
  std::size_t total_overflows() const noexcept {
    std::size_t n = 0;
    for (auto s : overflows) n += s;
    return n;
  }
};

/// What one MAC (Dense/Conv1D) layer's input presents to the kernels,
/// summed over QuantizedModel::forward_raw_profiled calls.
struct MacInputs {
  std::uint64_t inputs = 0;          ///< input activations (positions x in)
  std::uint64_t nonzero_inputs = 0;  ///< ... of which nonzero
  std::uint64_t macs = 0;            ///< multiply-accumulates, valid taps only
  /// (position, tap, input) terms whose input is nonzero: what the narrow
  /// kernels issue, each as one broadcast over the padded outputs.
  std::uint64_t listed_terms = 0;
};

class QuantizedModel {
 public:
  explicit QuantizedModel(FirmwareModel firmware);

  const FirmwareModel& firmware() const noexcept { return fw_; }

  /// Quantize the float frame to the input spec, run the integer pipeline,
  /// and return the dequantized float output (positions, channels).
  Tensor forward(const Tensor& input, ForwardStats* stats = nullptr) const;

  /// forward() into a caller-owned output tensor: when `out` already holds
  /// positions*channels elements its storage is reused, so steady-state
  /// serving does zero per-frame heap allocations on this path.
  void forward_into(const Tensor& input, Tensor& out,
                    ForwardStats* stats = nullptr) const;

  /// The range prover's per-layer verdicts (which layers run narrow int32
  /// lanes vs the wide int64 path, and why).
  const LaneReport& lanes() const noexcept { return lanes_; }

  /// Run many frames through the quantized pipeline on the global thread
  /// pool, each worker reusing its own scratch arena. Per-frame stats are
  /// summed into `stats` (counter sums are order-independent, so the result
  /// is deterministic and equal to sequential per-frame accumulation).
  std::vector<Tensor> forward_batch(std::span<const Tensor> inputs,
                                    ForwardStats* stats = nullptr) const;

  /// Raw 16-bit-style interface used by the SoC simulation: input words are
  /// already quantized at the input spec; outputs come back raw at the
  /// output spec.
  std::vector<std::int64_t> forward_raw(
      const std::vector<std::int64_t>& input_raw,
      ForwardStats* stats = nullptr) const;

  /// forward_raw() with each layer timed: layer i's wall time in ns is added
  /// to layer_ns[i] (one entry per firmware layer; entry 0, the input node,
  /// stays 0). With `inputs` (same size), each MAC layer's input sparsity is
  /// added to inputs[i], counted just before that layer runs (its source
  /// slab may be reused later in the frame), outside every timed region.
  /// Opt-in instrumentation for per-layer tables: forward_raw() runs the
  /// same layer code without the clock reads.
  std::vector<std::int64_t> forward_raw_profiled(
      const std::vector<std::int64_t>& input_raw, std::span<double> layer_ns,
      std::span<MacInputs> inputs = {}) const;

  /// The original (seed) executor: per-layer vectors, naive per-output
  /// loops. Kept as the bit-exactness oracle for the blocked kernels and as
  /// the baseline bench_kernels measures speedup against.
  std::vector<std::int64_t> forward_raw_reference(
      const std::vector<std::int64_t>& input_raw,
      ForwardStats* stats = nullptr) const;

  /// Quantize a float frame into raw input words (what the HPS does before
  /// writing the input buffer).
  std::vector<std::int64_t> quantize_input(const Tensor& input) const;
  /// Dequantize raw output words (what the HPS does after reading back).
  Tensor dequantize_output(const std::vector<std::int64_t>& raw) const;

  /// The per-thread arena a frame borrows, in 8-byte words: each firmware
  /// layer's int64 slab offset (a slab holds positions x out_channels words)
  /// in the planned activation block, the block's size, and the narrow-lane
  /// scratch carved after it.
  struct ArenaFootprint {
    std::span<const std::size_t> act_offsets;
    std::size_t act_words = 0;
    std::size_t narrow_words = 0;
  };
  ArenaFootprint arena_footprint() const noexcept {
    return {act_offset_, act_words_, narrow_words_};
  }

 private:
  /// Precomputed hot-path plan for a Dense/Conv1D layer: weights transposed
  /// to (k, in, out) and biases pre-aligned to the accumulator. Layers the
  /// range prover certified carry int16 weights / int32 biases instead
  /// (padded to out_pad, a multiple of 16, so the AVX-512 narrow kernels
  /// need no masked tails; kNarrow32 in kernels::narrow_weights' layout);
  /// unproven layers keep the exact int64 blocks.
  struct KernelPlan {
    bool use_kernel = false;
    Lane lane = Lane::kWide64;
    // Wide path:
    std::vector<std::int64_t> wtr;
    std::vector<std::int64_t> bias_acc;
    // Narrow path:
    std::vector<std::int16_t> wtr16;   ///< kernels::narrow_weights, or dp pairs
    std::vector<std::int32_t> bias32;  ///< out_pad wide, pad lanes zero
    std::size_t out_pad = 0;
    std::size_t in_stride = 0;  ///< int16 activation row stride (>= in_ch)
  };

  void prepare_stats(ForwardStats* stats) const;
  /// Run layer `idx` on the flat activation block (fast path).
  void run_layer_fast(std::size_t idx, std::int64_t* acts,
                      ForwardStats* stats) const;
  /// Seed implementation on per-layer vectors (reference path).
  void run_layer_reference(std::size_t idx,
                           const std::vector<std::vector<std::int64_t>>& acts,
                           std::vector<std::int64_t>& out,
                           ForwardStats* stats) const;
  /// Execute the pipeline over a flat activation block whose input slot is
  /// already populated; returns a pointer to the output slot.
  const std::int64_t* execute(std::int64_t* acts, ForwardStats* stats) const;

  FirmwareModel fw_;
  /// Per-layer slab offset in the activation block, planned by liveness
  /// (greedy by size): a slab shares words only with slabs whose lifetimes,
  /// from the layer's step to its last reader's, do not overlap its own.
  /// The input slab sits at act_offset_[0], not necessarily at 0.
  std::vector<std::size_t> act_offset_;
  std::size_t act_words_ = 0;  ///< activation block words: the plan's peak
  /// Extra arena words for the widest narrow layer's int16 activation copy,
  /// its per-row nonzero lists and list lengths, and int32 accumulator
  /// scratch (allocated per layer, nested scope).
  std::size_t narrow_words_ = 0;
  LaneReport lanes_;
  std::vector<KernelPlan> plans_;
  /// Sigmoid table: raw output-spec words, one per bucket over [-8, 8).
  std::vector<std::vector<std::int64_t>> sigmoid_tables_;  // per layer
  static constexpr std::size_t kSigmoidTableSize = 1024;
  static constexpr double kSigmoidRange = 8.0;
};

}  // namespace reads::hls
