// Bit-accurate executor for a FirmwareModel.
//
// All arithmetic is integer: activations and weights are raw two's-
// complement words at their layer's FixedSpec scaling; multiply-accumulate
// happens in a wide (int64) accumulator exactly like an HLS accumulator
// sized to avoid overflow; the write-out re-quantizes into the layer's
// activation spec (round-to-nearest, saturating), which is where the
// paper's quantization error and overflow outliers come from.
//
// Hot path: forward_raw() runs the layers over a per-thread scratch arena
// (one flat block, each slab placed at construction so slabs whose
// lifetimes do not overlap share bytes — zero allocations per frame) and
// dispatches Dense/Conv1D through blocked transposed-weight kernels (see
// qkernels.hpp). Activations pass between layers as int16 wherever the
// range prover bounds them to int16, which covers every 16-bit format, and
// as int64 otherwise. Each producer layer ends in one write-out that also
// does the work of the layers fused into it: a ReLU that is its only
// reader, UpSamplings (row replication) and Concatenates (placement at the
// input's channel offset), so those layers run no pass of their own.
// forward_raw_reference() keeps the original per-layer-vector
// implementation; the two are bit-identical (outputs and ForwardStats
// counters), which tests assert and bench_kernels times.
//
// Sigmoid is evaluated through a 1024-entry lookup table over [-8, 8),
// matching the hls4ml implementation of activation tables.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hls/firmware.hpp"
#include "hls/lanes.hpp"
#include "hls/qkernels.hpp"
#include "tensor/tensor.hpp"
#include "util/arena.hpp"

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
  /// already quantized at the input spec, inside its saturation range (the
  /// range prover, and so the slab types, assume it); outputs come back raw
  /// at the output spec.
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

  /// One firmware layer's slab in the activation block a frame borrows.
  /// A layer computed inside its producer's write-out that nothing reads
  /// directly (a fused ReLU, an UpSampling or Concatenate feeding another
  /// placement) has none: `bytes` is 0. A slab holds positions x channels
  /// values, then, when a narrow MAC layer reads it, each row's nonzero
  /// list (uint16 per channel) and the list lengths (uint16 per row); each
  /// part starts on a 64-byte boundary.
  struct SlabPlan {
    std::size_t offset = 0;  ///< bytes into the activation block
    std::size_t bytes = 0;
    std::size_t elem_bytes = 0;  ///< 2 (int16) or 8 (int64)
    bool lists = false;
    std::size_t first = 0;  ///< layer whose step writes it first
    std::size_t last = 0;   ///< last layer that reads it; SIZE_MAX: output
  };
  /// The per-thread arena a frame borrows, in bytes: each layer's slab,
  /// the planned activation block's size, and the per-step scratch carved
  /// after it (MAC accumulators, the quantized input, Sigmoid values).
  struct ArenaFootprint {
    std::span<const SlabPlan> slabs;
    std::size_t act_bytes = 0;
    std::size_t scratch_bytes = 0;
  };
  ArenaFootprint arena_footprint() const noexcept {
    return {slabs_, act_bytes_, scratch_bytes_};
  }

 private:
  /// Precomputed hot-path plan for a Dense/Conv1D layer: weights transposed
  /// to (k, in, out) and biases pre-aligned to the accumulator. Layers the
  /// range prover certified carry int16 weights / int32 biases instead
  /// (padded to out_pad, a multiple of 16, so the AVX-512 narrow kernels
  /// need no masked tails; in kernels::narrow_weights' layout); unproven
  /// layers keep the exact int64 blocks.
  struct KernelPlan {
    Lane lane = Lane::kWide64;
    // Wide path:
    std::vector<std::int64_t> wtr;
    std::vector<std::int64_t> bias_acc;
    // Narrow path:
    std::vector<std::int16_t> wtr16;   ///< kernels::narrow_weights
    std::vector<std::int32_t> bias32;  ///< out_pad wide, pad lanes zero
    std::size_t out_pad = 0;
  };

  /// One frame's carve-up of the arena: the activation block and the
  /// per-layer saturation/overflow counters the write-outs add to.
  struct Frame {
    std::byte* block = nullptr;
    std::size_t* sat = nullptr;
    std::size_t* ovf = nullptr;
  };

  void prepare_stats(ForwardStats* stats) const;
  Frame start_frame(util::ScratchArena& arena) const;
  /// Write raw input words through the input layer's write-out.
  void write_input(const std::int64_t* raw, const Frame& frame) const;
  /// Run layer `idx`'s step: read its source slab, write out (fast path).
  void run_step(std::size_t idx, const Frame& frame) const;
  /// Run every step; add the frame's counters to `stats` if given.
  void execute(const Frame& frame, ForwardStats* stats) const;
  /// Raw output word i, read from the output layer's slab.
  std::int64_t output_word(const Frame& frame, std::size_t i) const;
  /// Seed implementation on per-layer vectors (reference path).
  void run_layer_reference(std::size_t idx,
                           const std::vector<std::vector<std::int64_t>>& acts,
                           std::vector<std::int64_t>& out,
                           ForwardStats* stats) const;

  FirmwareModel fw_;
  /// Per-layer slab, planned by liveness (greedy by size): a slab shares
  /// bytes only with slabs whose lifetimes, from its first writer's step to
  /// its last reader's, do not overlap its own.
  std::vector<SlabPlan> slabs_;
  std::size_t act_bytes_ = 0;      ///< activation block: the plan's peak
  std::size_t scratch_bytes_ = 0;  ///< the largest step's scratch
  /// Per layer: does it run a step of its own (else it is the input, or is
  /// computed inside a producer's write-out)?
  std::vector<bool> step_;
  /// Per producer layer (the input and every step): its write-out.
  std::vector<kernels::Epilogue> epilogues_;
  LaneReport lanes_;
  std::vector<KernelPlan> plans_;
  /// Sigmoid table: raw output-spec words, one per bucket over [-8, 8).
  std::vector<std::vector<std::int64_t>> sigmoid_tables_;  // per layer
  static constexpr std::size_t kSigmoidTableSize = 1024;
  static constexpr double kSigmoidRange = 8.0;
};

}  // namespace reads::hls
