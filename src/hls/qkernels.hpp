// Blocked, transposed-weight integer kernels for the quantized executor.
//
// Dense and Conv1D dominate the bit-accurate forward pass. The kernels here
// work on weights transposed to (k, in, out) layout so the innermost loop
// runs over *outputs* with a contiguous weight row and a single broadcast
// activation — block-friendly for both the scalar unrolls and the AVX-512
// paths. The narrow int16 lane interleaves the two halves of each
// 32-output block within a row (narrow_weights).
//
// Two lane widths exist, one datapath per MAC layer:
//  - conv1d_acc: the exact int64 path (8 lanes/vector, vpmullq/vpsraq).
//    Always correct; the fallback for layers the range prover cannot clear.
//  - conv1d_acc_i16: the narrow path (16 lanes/vector) for layers the
//    prover (lanes.hpp) certified: weights and activations fit int16, every
//    product fits int32 after the per-term shift, and all partial sums stay
//    inside int32 — so int32 accumulation is *exact*, not approximate.
//
// Sparse activations: after ReLU a large share of narrow-layer inputs are
// zero. The write-out that stores a slab a narrow layer reads also lists,
// per position row, that row's nonzero channels, and the narrow kernels
// loop over the list only: no per-input zero test (an unpredictable
// branch) inside the MAC loops, and every unlisted term is exactly
// (0 * w) >> shift = 0.
//
// One int16 dataflow between layers: write_out is every producer's
// epilogue. It finalizes a MAC layer's accumulators, applies the requants
// of the layers fused into it (a ReLU that is its only reader, UpSampling,
// Concatenate inputs) in registers, and stores each result where its
// readers read it: the int16 slab of a ReLU, rows replicated for an
// UpSampling, or a Concatenate's slab at the input's channel offset. So no
// standalone ReLU/UpSampling/Concatenate pass and no int64 -> int16 repack
// runs between MAC layers.
//
// Bit-exactness contract: each MAC kernel produces, for every output, the
// exact sum  bias_acc[o] + sum_taps((w * x) >> shift)  — the same value the
// reference per-output loop computes, because the arithmetic is exact at
// the (proven) magnitudes and addition order is therefore immaterial.
// write_out then applies Accum::finalize and each Requant::apply exactly as
// the reference does, and counts the same events, so ForwardStats
// saturation/overflow counts are unchanged by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hls/accum.hpp"

namespace reads::hls::kernels {

/// 'same'-padded stride-1 Conv1D accumulator pass (Dense is the k == 1
/// case). `x` is (positions, in_ch) activations, `wtr` is the transposed
/// weight block (k, in_ch, out_ch), `bias_acc` holds per-output bias terms
/// already aligned to the accumulator, and `acc` receives the exact int64
/// accumulator value for each of positions*out_ch outputs. `shift` is the
/// product-to-accumulator alignment (Accum::prod_shift, always >= 0).
void conv1d_acc(const std::int64_t* x, const std::int64_t* wtr,
                const std::int64_t* bias_acc, std::int64_t* acc,
                std::size_t positions, std::size_t in_ch, std::size_t out_ch,
                std::size_t k, int shift);

/// Accumulator row stride of the narrow lanes: out_ch rounded up to 16.
constexpr std::size_t narrow_out_pad(std::size_t out_ch) noexcept {
  return (out_ch + 15) & ~std::size_t{15};
}

/// The conv1d_acc_i16 weight layout, built from `w` in the firmware's
/// (out_ch, k, in_ch) order: k * in_ch rows of narrow_out_pad(out_ch)
/// int16, one per (tap, input). Within each full 32-output block at `ob`
/// of a row, element 2j holds output ob + j and element 2j + 1 holds
/// output ob + 16 + j, so one 64-byte load feeds two vpmaddwd: against
/// the broadcast (x, 0) it yields the first 16 outputs' products, against
/// (0, x) the next 16. A trailing 16-output block (out_pad % 32 == 16)
/// stays in natural order; pad outputs carry zero weights. The values must
/// already fit int16 (the range prover's certificate).
std::vector<std::int16_t> narrow_weights(const std::int64_t* w,
                                         std::size_t out_ch, std::size_t k,
                                         std::size_t in_ch);

/// Narrow-lane pass for range-prover-certified layers. `x` is (positions,
/// in_ch) int16 activations with their nonzero lists `nz`/`nnz` from
/// write_out (channel indices, any order), `wtr` is narrow_weights' layout (out_pad =
/// narrow_out_pad(out_ch)), `bias_acc`/`acc` are out_pad-stride int32 in
/// natural output order. Only listed inputs are multiplied. The AVX-512
/// variant computes all out_pad lanes; only the first out_ch of each row
/// are meaningful. `shift` in [0, 31] is applied per product
/// (vpmaddwd/vpsravd — products fit int32 by the prover's int16 bounds).
/// For k == 3 the AVX-512 variant is input-stationary: each listed input
/// is broadcast once per row and feeds all three taps.
void conv1d_acc_i16(const std::int16_t* x, const std::uint16_t* nz,
                    const std::uint16_t* nnz, const std::int16_t* wtr,
                    const std::int32_t* bias_acc, std::int32_t* acc,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t out_pad, std::size_t k,
                    int shift);

/// One requant a write-out applies on the way out: the producer's own
/// (MaxPool, ReLU, Flatten), or that of a layer fused into the producer — a
/// ReLU that is its only reader, an UpSampling, or one Concatenate input.
/// Its saturations count towards ForwardStats entry `layer`, `mult` times
/// each: the reference requants every replica an UpSampling makes.
struct Stage {
  reads::hls::detail::Requant rq;
  bool relu = false;  ///< clamp at zero before the requant (a ReLU)
  std::uint32_t layer = 0;
  std::uint32_t mult = 1;
};

/// One destination of a write-out: part of a slab in the activation block.
/// Source row p lands on slab rows p * rep ... p * rep + rep - 1 (an
/// UpSampling), at channels [channel, channel + source channels) (a
/// Concatenate input's offset).
/// Slabs a narrow MAC layer reads are int16 and carry each row's nonzero
/// list: channel indices in uint16 (row stride `stride`) and the list
/// lengths. The first writer of such a slab starts every row's list empty
/// (`reset`); a later one, writing another Concatenate input, appends.
struct Sink {
  std::uint32_t stage_begin = 0;  ///< the sink's own stages, in
  std::uint32_t stage_end = 0;    ///< Epilogue::stages, after the common ones
  std::size_t values = 0;         ///< byte offset of slab row 0, channel 0
  std::size_t channel = 0;
  std::size_t stride = 0;  ///< slab channels: elements per row
  std::size_t rep = 1;
  bool i16 = true;  ///< int16 slab, else int64
  bool lists = false;
  bool reset = false;
  std::size_t nz = 0;   ///< byte offset of the lists
  std::size_t nnz = 0;  ///< byte offset of the list lengths
};

/// A producer layer's write-out: stages [0, common) apply to every sink,
/// then each sink applies its own and stores. Accumulator wraps and the
/// accumulator's own saturations count towards entry `layer`.
struct Epilogue {
  std::uint32_t layer = 0;
  std::uint32_t common = 0;
  std::vector<Stage> stages;
  std::vector<Sink> sinks;
  /// Certificate from the range prover's bounds: every source value,
  /// every value a requant reads plus its rounding half (or shifted left,
  /// when it widens), and every clamp bound fits int32; |shift| < 32 for
  /// the accumulator's and every stage's requant; and every sink is
  /// int16. Only then may the AVX-512 body run it, in 16 int32 lanes.
  bool narrow = false;
};

/// The rows a write-out reads: `positions` output rows of `ch` values,
/// `stride` elements apart. With `pool` > 1 output row p is the elementwise
/// max of source rows p * pool ... p * pool + pool - 1 (MaxPool). With
/// `accum` each value is a MAC accumulator and goes through
/// Accum::finalize (wrap, then the layer's requant) first.
template <typename T>
struct Rows {
  const T* data = nullptr;
  std::size_t positions = 0;
  std::size_t ch = 0;
  std::size_t stride = 0;
  std::size_t pool = 1;
  const reads::hls::detail::Accum* accum = nullptr;
};

/// Write `src` out through `ep` into the slabs of the activation block at
/// `block`: per value, finalize (with `accum`), the common stages, then per
/// sink its stages, the store, and the nonzero list. Counts go to
/// ovf[layer] / sat[layer], exactly as the reference's per-element
/// Accum::finalize and Requant::apply loops count them; pad lanes of an
/// accumulator row (past `ch`) are neither read nor counted. int16 sinks
/// narrow by truncation: the values they receive are proven to fit.
/// A `narrow` write-out runs the AVX-512 body where the host has it: 16
/// int32 lanes per step, each row's last ch % 16 under a mask, through a
/// buffer of whole rows that each stage passes over in turn. Every other
/// write-out (formats wider than 16 bits, int64 accumulators, rows longer
/// than detail::kVectorRow) runs the portable int64 body.
void write_out(const Rows<std::int16_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out(const Rows<std::int32_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out(const Rows<std::int64_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf);

/// Name of the int64 kernel variant selected at runtime ("avx512"/"scalar").
const char* variant() noexcept;
/// Same for the narrow int16 kernel ("avx512"/"scalar").
const char* narrow_variant() noexcept;
/// Host fact, not a kernel choice: "avx512-vnni" when the CPU reports
/// avx512f, bw, vl and vnni, otherwise "scalar". perfbench records it to
/// tell runs on different hosts apart.
const char* narrow_dp_variant() noexcept;

namespace detail {
/// Most stages the AVX-512 write-out applies per group (the common ones, or
/// one sink's), most sinks, and most values per row (a multiple of 16);
/// more, or empty rows, take the portable body.
inline constexpr std::size_t kVectorStages = 4;
inline constexpr std::size_t kVectorSinks = 4;
inline constexpr std::size_t kVectorRow = 256;

/// The portable bodies of write_out and conv1d_acc_i16, whatever the host
/// supports, so tests on AVX-512 hosts still check the path every other
/// host runs.
void write_out_scalar(const Rows<std::int16_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out_scalar(const Rows<std::int32_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out_scalar(const Rows<std::int64_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
void conv1d_acc_i16_scalar(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t out_ch, std::size_t out_pad,
                           std::size_t k, int shift);
}  // namespace detail

}  // namespace reads::hls::kernels
