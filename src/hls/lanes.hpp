// Narrow-lane range prover for the quantized kernel engine.
//
// The paper's layer-based precision work guarantees every activation word
// saturates into its layer's FixedSpec, and the weights are fixed at compile
// time — which means the accumulator magnitudes of each Dense/Conv1D layer
// are *provable* before any frame is served. This module turns that into a
// machine-checked per-layer lane decision (rule4ml's "keep the precision
// bookkeeping machine-checkable" applied in software): a layer whose proven
// accumulator envelope fits int32 runs the int16xint16->int32 narrow-lane
// kernels (16 SIMD lanes, quarter the weight traffic); anything unproven
// falls back to the exact int64 path. Bit-identity is never traded away —
// the proof is a precondition for using narrow arithmetic, not a tolerance.
//
// The proof has two parts:
//  1. Interval propagation of raw activation words through the firmware
//     graph. Every layer's write-out goes through a saturating Requant, so
//     its output interval is the requant image of its input interval,
//     intersected with the spec's saturation range; ReLU clamps at zero,
//     the sigmoid LUT is bounded by quantize(1.0), and a MAC layer whose
//     accumulator provably never wraps maps its envelope through the
//     (monotone) output requant. The PTQ profiler ranges enter through the
//     FixedSpecs themselves: layer_based_config sizes every spec from the
//     profiled maxima, and those specs are what the intervals come from.
//  2. A per-output accumulator envelope: with x in [x_lo, x_hi] (from step
//     1) and the actual trained weights, each term t = (w*x) >> s lies in a
//     computable interval, and every *partial* sum the kernels can form —
//     bias first, taps in any order — lies inside
//       [bias + sum min(0, t_lo),  bias + sum max(0, t_hi)].
//     If that envelope fits int32 (and weights/activations fit int16, and
//     0 <= s < 32), int32 accumulation of shifted int32 products is exact,
//     hence bit-identical to the reference int64 loop. The layer must also
//     have at most 65,535 input channels: the narrow kernels count a row's
//     nonzero inputs in uint16.
//
// The VNNI dot-product lane (vpdpwssd: two int16 products fused into one
// int32 accumulate) additionally requires s == 0 (the fused pair-sum cannot
// reproduce a per-term shift) and the stricter absolute-sum bound
// |bias| + sum max(|t_lo|, |t_hi|) < 2^31, because the instruction folds
// unshifted product pairs before they ever meet the running sum.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hls/firmware.hpp"

namespace reads::hls {

enum class Lane : std::uint8_t {
  kWide64,     ///< exact int64 path (reference-shaped kernels)
  kNarrow32,   ///< int16 x int16 -> int32, per-term shift in int32
  kNarrowDp,   ///< int16 pair dot-product (VNNI-style), shift == 0
};

std::string_view to_string(Lane lane) noexcept;

/// Proven raw-word interval of one layer's output.
struct RawInterval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Verdict for one firmware layer.
struct LaneDecision {
  Lane lane = Lane::kWide64;
  bool mac_layer = false;  ///< Dense/Conv1D (the kernel-eligible kinds)
  /// Why the layer is (or is not) on a narrow lane, human-readable.
  std::string reason;
  /// Proven bounds used by the decision (valid for mac_layer):
  std::int64_t env_lo = 0;     ///< min over any kernel partial sum
  std::int64_t env_hi = 0;     ///< max over any kernel partial sum
  std::int64_t abs_bound = 0;  ///< |bias| + sum of per-term |t| bounds
};

struct LaneReport {
  std::vector<LaneDecision> decisions;  ///< one per firmware layer
  std::vector<RawInterval> ranges;      ///< step-1 intervals, per layer
  std::size_t mac_layers = 0;
  std::size_t narrow_layers = 0;  ///< kNarrow32 + kNarrowDp among MAC layers
};

/// Run the prover over a compiled firmware model.
LaneReport prove_lanes(const FirmwareModel& fw);

}  // namespace reads::hls
