// Blocked, transposed-weight integer kernels for the quantized executor.
//
// Dense and Conv1D dominate the bit-accurate forward pass. The kernels here
// work on weights transposed to (k, in, out) layout so the innermost loop
// runs over *outputs* with a contiguous weight row and a single broadcast
// activation — block-friendly for both the scalar unrolls and the AVX-512
// paths. The narrow int16 lane interleaves the two halves of each
// 32-output block within a row (narrow_weights).
//
// Two lane widths exist:
//  - conv1d_acc: the exact int64 path (8 lanes/vector, vpmullq/vpsraq).
//    Always correct; the fallback for layers the range prover cannot clear.
//  - conv1d_acc_i16 / conv1d_acc_i16_dp: the narrow path (16 lanes/vector)
//    for layers the prover (lanes.hpp) certified: weights and activations
//    fit int16, every product fits int32 after the per-term shift, and all
//    partial sums stay inside int32 — so int32 accumulation is *exact*, not
//    approximate. The _dp variant additionally requires shift == 0 and uses
//    VNNI-style fused int16-pair dot products (vpdpwssd) where available;
//    a per-term shift cannot ride through the fused pair-sum, which is why
//    it is a separate lane.
//
// Sparse activations: after ReLU a large share of narrow-layer inputs are
// zero. pack_i16 writes, with the int16 copy of each position row, the
// list of that row's nonzero inputs, and the narrow kernels loop over the
// list only: no per-input zero test (an unpredictable branch) inside the
// MAC loops, and every unlisted term is exactly (0 * w) >> shift = 0.
//
// Bit-exactness contract: each kernel produces, for every output, the exact
// sum  bias_acc[o] + sum_taps((w * x) >> shift)  — the same value the
// reference per-output loop computes, because the arithmetic is exact at
// the (proven) magnitudes and addition order is therefore immaterial. The
// caller applies Accum::finalize (wrap + requant + stats counting)
// afterwards, so ForwardStats saturation/overflow counts are unchanged by
// construction.
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

/// Copy int64 activation rows (positions, in_ch) down to int16 rows of
/// `in_stride` (>= in_ch; pad columns are written zero) and list, per row,
/// the inputs that are not zero. Without `pairs` the list
/// holds channel indices (row stride in_stride); with `pairs` it holds
/// indices of channel pairs (2j, 2j+1) with a nonzero half (row stride
/// in_stride / 2, for the dot-product lane). nnz[p] is row p's list length;
/// list slots past it are unspecified. The values must already fit int16
/// (the range prover's certificate). The AVX-512 variant handles 16
/// channels per step — two vpmovqw narrowings, a vptestmw nonzero mask and
/// a vpcompressd of the channel indices — for the channel lists; the pair
/// lists (which no deployed layer uses) stay scalar.
void pack_i16(const std::int64_t* in, std::size_t positions,
              std::size_t in_ch, std::size_t in_stride, bool pairs,
              std::int16_t* x16, std::uint16_t* nz, std::uint16_t* nnz);

/// Row stride (list slots per position) of pack_i16's nonzero lists.
constexpr std::size_t nz_stride(std::size_t in_stride, bool pairs) noexcept {
  return pairs ? in_stride / 2 : in_stride;
}

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
/// in_stride) int16 activations with their nonzero lists `nz`/`nnz` from
/// pack_i16 (channel indices), `wtr` is narrow_weights' layout (out_pad =
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
                    std::size_t in_stride, std::size_t out_ch,
                    std::size_t out_pad, std::size_t k, int shift);

/// Dot-product narrow pass (shift == 0 only). Input channels are processed
/// as in_pairs adjacent pairs (in_stride = 2 * in_pairs; an odd channel
/// count is zero-padded), `nz`/`nnz` list the nonzero pairs (pack_i16 with
/// `pairs`), and `wtr` is pair-interleaved: (k, in_pairs, out_pad, 2).
/// Accumulation fuses each int16 pair into one int32 add — exactly
/// vpdpwssd — which the prover's absolute-sum bound keeps exact.
void conv1d_acc_i16_dp(const std::int16_t* x, const std::uint16_t* nz,
                       const std::uint16_t* nnz, const std::int16_t* wtr,
                       const std::int32_t* bias_acc, std::int32_t* acc,
                       std::size_t positions, std::size_t in_pairs,
                       std::size_t in_stride, std::size_t out_ch,
                       std::size_t out_pad, std::size_t k);

/// Elementwise requant write-out: out[i] = rq.apply(relu ? max(0, in[i]) :
/// in[i]). These loops (ReLU/Flatten/Concat/UpSample) are half the frame
/// time once the MACs run narrow, so the AVX-512 variant processes 8 int64
/// lanes per step (the last n % 8 under a mask) and counts saturations by
/// mask popcount — the total is identical to the scalar per-element count.
/// Widening (rq.shift < 0) runs vectorized too, saturating against
/// pre-shift thresholds; only the
/// degenerate bands fall back to the scalar loop — shift <= -63 (every
/// nonzero input saturates) and shift >= 64 (everything rounds to zero;
/// the SIMD half-constant 2^(shift-1) would not fit an int64 lane).
void requant_i64(const std::int64_t* in, std::int64_t* out, std::size_t n,
                 const reads::hls::detail::Requant& rq, bool relu,
                 std::size_t& saturations);

/// MaxPool write-out: out[p*ch + c] = rq.apply(max over d < factor of
/// in[(p*factor + d)*ch + c]), with saturations counted exactly as the
/// scalar per-element loop does. The AVX-512 variant takes the max over 8
/// int64 lanes at a time and reuses requant_i64's vector requant; the same
/// degenerate shift bands (<= -63, >= 64) run the scalar loop.
void maxpool_i64(const std::int64_t* in, std::int64_t* out,
                 std::size_t positions, std::size_t ch, std::size_t factor,
                 const reads::hls::detail::Requant& rq,
                 std::size_t& saturations);

/// Finalize a narrow int32 accumulator block into int64 activations:
/// out[p*out_ch + o] = ac.finalize(acc[p*acc_stride + o]) for o < out_ch,
/// with wrap (overflow) and saturation events counted exactly as the scalar
/// Accum::finalize does. The AVX-512 variant runs each row's last
/// out_ch % 8 lanes under a mask, so pad lanes are neither read nor
/// counted. Falls back to scalar only in the degenerate ac.out.shift bands
/// (<= -63 or >= 64).
void finalize_i32(const std::int32_t* acc, std::int64_t* out,
                  std::size_t positions, std::size_t out_ch,
                  std::size_t acc_stride, const reads::hls::detail::Accum& ac,
                  std::size_t& overflows, std::size_t& saturations);

/// Name of the int64 kernel variant selected at runtime ("avx512"/"scalar").
const char* variant() noexcept;
/// Same for the narrow int16 kernel ("avx512"/"scalar").
const char* narrow_variant() noexcept;
/// Same for the dot-product kernel ("avx512-vnni"/"scalar").
const char* narrow_dp_variant() noexcept;

namespace detail {
/// The portable bodies of pack_i16 and conv1d_acc_i16, whatever the host
/// supports, so tests on AVX-512 hosts still check the path every other
/// host runs.
void pack_i16_scalar(const std::int64_t* in, std::size_t positions,
                     std::size_t in_ch, std::size_t in_stride, bool pairs,
                     std::int16_t* x16, std::uint16_t* nz,
                     std::uint16_t* nnz);
void conv1d_acc_i16_scalar(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t in_stride, std::size_t out_ch,
                           std::size_t out_pad, std::size_t k, int shift);
}  // namespace detail

}  // namespace reads::hls::kernels
