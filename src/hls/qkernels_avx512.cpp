// AVX-512 variants of the quantized executor's kernels: the wide and narrow
// Conv1D/Dense accumulators, pack_i16, MaxPool and the requant/finalize
// write-outs. This translation unit is compiled with -mavx512f -mavx512dq
// -mavx512vl -mavx512bw (see src/hls/CMakeLists.txt) and is only ever
// called after a runtime __builtin_cpu_supports check in qkernels.cpp.
//
// All lane arithmetic is exact int64 (vpmullq products fit comfortably:
// |w|, |x| < 2^24, so |w*x| < 2^48; vpsraq is the same floor shift as the
// scalar `>>`), so the per-output sums — and therefore the finalize-stage
// overflow/saturation counts — are bit-identical to the scalar kernel.
#if defined(READS_QKERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "hls/accum.hpp"

namespace reads::hls::kernels::detail {

namespace hd = ::reads::hls::detail;

void conv1d_acc_avx512(const std::int64_t* x, const std::int64_t* wtr,
                       const std::int64_t* bias_acc, std::int64_t* acc,
                       std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k, int shift) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  const __m128i shift_cnt = _mm_cvtsi32_si128(shift);
  const std::size_t o_main = out_ch & ~std::size_t{7};
  const auto tail_mask =
      static_cast<__mmask8>((1u << (out_ch - o_main)) - 1u);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    std::int64_t* accp = acc + static_cast<std::size_t>(p) * out_ch;
    std::copy(bias_acc, bias_acc + out_ch, accp);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const std::int64_t* xq =
          x + static_cast<std::size_t>(p + dk - pad) * in_ch;
      const std::int64_t* wdk =
          wtr + static_cast<std::size_t>(dk) * in_ch * out_ch;
      for (std::size_t i = 0; i < in_ch; ++i) {
        const std::int64_t xv = xq[i];
        if (xv == 0) continue;
        const __m512i xvec = _mm512_set1_epi64(xv);
        const std::int64_t* wrow = wdk + i * out_ch;
        std::size_t o = 0;
        for (; o < o_main; o += 8) {
          const __m512i w = _mm512_loadu_si512(wrow + o);
          const __m512i term =
              _mm512_sra_epi64(_mm512_mullo_epi64(w, xvec), shift_cnt);
          const __m512i a = _mm512_loadu_si512(accp + o);
          _mm512_storeu_si512(accp + o, _mm512_add_epi64(a, term));
        }
        if (tail_mask) {
          const __m512i w = _mm512_maskz_loadu_epi64(tail_mask, wrow + o);
          const __m512i term =
              _mm512_sra_epi64(_mm512_mullo_epi64(w, xvec), shift_cnt);
          const __m512i a = _mm512_maskz_loadu_epi64(tail_mask, accp + o);
          _mm512_mask_storeu_epi64(accp + o, tail_mask,
                                   _mm512_add_epi64(a, term));
        }
      }
    }
  }
}

namespace {

// Precomputed 8-lane constants for one Requant. The widening thresholds
// mirror Requant::apply exactly: v << k saturates iff v lies outside
// [ceil(lo / 2^k), hi >> k], evaluated BEFORE the shift so no lane ever
// overflows int64. Built once per call, reused for every vector.
struct RQ8 {
  int shift;
  __m128i cnt;                // |shift| as a shift count
  __m512i vhalf;              // rounding bias, shift > 0 only
  __m512i vlo, vhi;           // destination clamp range
  __m512i vlo_thr, vhi_thr;   // pre-shift thresholds, shift < 0 only

  explicit RQ8(const hd::Requant& rq)
      : shift(rq.shift),
        cnt(_mm_cvtsi32_si128(rq.shift >= 0 ? rq.shift : -rq.shift)),
        vhalf(_mm512_set1_epi64(
            rq.shift > 0 ? std::int64_t{1} << (rq.shift - 1) : 0)),
        vlo(_mm512_set1_epi64(rq.lo)),
        vhi(_mm512_set1_epi64(rq.hi)),
        vlo_thr(_mm512_setzero_si512()),
        vhi_thr(_mm512_setzero_si512()) {
    if (shift < 0) {
      const int k = -shift;  // < 63: the wrapper routes k >= 63 to scalar
      const std::int64_t hi_thr = rq.hi >> k;
      const std::int64_t lo_floor = rq.lo >> k;
      const std::int64_t lo_thr =
          lo_floor * (std::int64_t{1} << k) == rq.lo ? lo_floor
                                                     : lo_floor + 1;
      vlo_thr = _mm512_set1_epi64(lo_thr);
      vhi_thr = _mm512_set1_epi64(hi_thr);
    }
  }
};

// 8-lane Requant::apply. shift > 0: round-to-nearest half-away-from-zero
// via |v| (exactly the scalar's two-branch rounding), then clamp. shift < 0
// (widening): saturate against the pre-shift thresholds and left-shift the
// in-range lanes — in-range results land inside [lo, hi] by construction,
// so the final clamp is skipped just like the scalar early returns. Either
// way `sat` reports the would-saturate lanes; popcounting it gives the same
// saturation total as the scalar per-element counter.
inline __m512i requant8(__m512i v, const RQ8& rq, __mmask8& sat) {
  if (rq.shift < 0) {
    const auto hi_m = _mm512_cmplt_epi64_mask(rq.vhi_thr, v);
    const auto lo_m = _mm512_cmplt_epi64_mask(v, rq.vlo_thr);
    sat = static_cast<__mmask8>(hi_m | lo_m);
    v = _mm512_sll_epi64(v, rq.cnt);
    v = _mm512_mask_mov_epi64(v, hi_m, rq.vhi);
    v = _mm512_mask_mov_epi64(v, lo_m, rq.vlo);
    return v;
  }
  if (rq.shift > 0) {
    const __m512i a = _mm512_abs_epi64(v);
    // a + half >= 0, so the logical shift is the arithmetic one.
    const __m512i t = _mm512_srl_epi64(_mm512_add_epi64(a, rq.vhalf), rq.cnt);
    const __mmask8 neg =
        _mm512_cmplt_epi64_mask(v, _mm512_setzero_si512());
    v = _mm512_mask_sub_epi64(t, neg, _mm512_setzero_si512(), t);
  }
  sat = static_cast<__mmask8>(_mm512_cmplt_epi64_mask(v, rq.vlo) |
                              _mm512_cmplt_epi64_mask(rq.vhi, v));
  v = _mm512_max_epi64(_mm512_min_epi64(v, rq.vhi), rq.vlo);
  return v;
}

}  // namespace

void requant_i64_avx512(const std::int64_t* in, std::int64_t* out,
                        std::size_t n, const hd::Requant& rq, bool relu,
                        std::size_t& saturations) {
  const RQ8 r8(rq);  // |shift| < 63 (the wrapper routes shift <= -63 away)
  const __m512i zero = _mm512_setzero_si512();
  std::size_t sat = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i v = _mm512_loadu_si512(in + i);
    if (relu) v = _mm512_max_epi64(v, zero);
    __mmask8 m;
    v = requant8(v, r8, m);
    sat += static_cast<std::size_t>(__builtin_popcount(m));
    _mm512_storeu_si512(out + i, v);
  }
  for (; i < n; ++i) {
    const std::int64_t v = relu ? std::max<std::int64_t>(0, in[i]) : in[i];
    out[i] = rq.apply(v, sat);
  }
  saturations += sat;
}

void finalize_i32_avx512(const std::int32_t* acc, std::int64_t* out,
                         std::size_t positions, std::size_t out_ch,
                         std::size_t acc_stride, const hd::Accum& ac,
                         std::size_t& overflows, std::size_t& saturations) {
  const int rb = ac.ring_bits;
  const bool can_wrap = rb < 64;
  const __m128i wrap_cnt = _mm_cvtsi32_si128(can_wrap ? 64 - rb : 0);
  const __m512i ring_lo = _mm512_set1_epi64(ac.ring_lo);
  const __m512i ring_hi = _mm512_set1_epi64(ac.ring_hi);
  const RQ8 r8(ac.out);  // |shift| < 63 (wrapper routes shift <= -63 away)
  std::size_t ovf = 0;
  std::size_t sat = 0;
  const std::size_t o_main = out_ch & ~std::size_t{7};
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int32_t* ap = acc + p * acc_stride;
    std::int64_t* yp = out + p * out_ch;
    std::size_t o = 0;
    for (; o < o_main; o += 8) {
      __m512i v = _mm512_cvtepi32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + o)));
      if (can_wrap) {
        const auto w = static_cast<__mmask8>(
            _mm512_cmplt_epi64_mask(v, ring_lo) |
            _mm512_cmplt_epi64_mask(ring_hi, v));
        if (w) {
          // Sign-extend the low ring_bits: identical to the scalar
          // mask-and-or wrap.
          const __m512i wr =
              _mm512_sra_epi64(_mm512_sll_epi64(v, wrap_cnt), wrap_cnt);
          v = _mm512_mask_mov_epi64(v, w, wr);
          ovf += static_cast<std::size_t>(__builtin_popcount(w));
        }
      }
      __mmask8 m;
      v = requant8(v, r8, m);
      sat += static_cast<std::size_t>(__builtin_popcount(m));
      _mm512_storeu_si512(yp + o, v);
    }
    for (; o < out_ch; ++o) {
      yp[o] = ac.finalize(ap[o], ovf, sat);
    }
  }
  overflows += ovf;
  saturations += sat;
}

namespace {

// One pass over all positions holding NB 16-lane int32 accumulator vectors
// (up to 64 outputs) in registers across the whole tap/input-channel loop —
// the accumulators never round-trip through memory, unlike the int64 kernel
// above which loads/stores per input channel. out_pad is a multiple of 16
// (pad columns carry zero weights), so no masked tail is needed. The input
// loop walks the row's nonzero list, so its trip count is the only
// data-dependent control flow.
//
// Per 16 lanes the MAC is 4 uops: vpmovsxwd (weight load), vpmaddwd,
// vpsravd, vpaddd. The activation is broadcast as the 32-bit lane (x, 0)
// — its low int16 half x, its high half 0 — so vpmaddwd's pair sum
// lo(w)*x + hi(w)*0 is exactly the product w*x, which fits int32 by the
// prover's int16 bounds (even -32768 * -32768 = 2^30). vpmulld (2 uops)
// and a shift by an xmm count (2 uops) cost 6.
template <int NB>
void narrow_block_pass(const std::int16_t* x, const std::uint16_t* nz,
                       const std::uint16_t* nnz, const std::int16_t* wtr,
                       const std::int32_t* bias_acc, std::int32_t* acc,
                       std::ptrdiff_t pos, std::size_t in_ch,
                       std::size_t in_stride, std::size_t out_pad,
                       std::size_t ob, std::ptrdiff_t kk, int shift) {
  const auto pad = kk / 2;
  const __m512i shift_cnt = _mm512_set1_epi32(shift);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    __m512i accv[NB];
    for (int b = 0; b < NB; ++b) {
      accv[b] = _mm512_loadu_si512(bias_acc + ob + 16 * static_cast<std::size_t>(b));
    }
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const auto q = static_cast<std::size_t>(p + dk - pad);
      const std::int16_t* xq = x + q * in_stride;
      const std::uint16_t* list = nz + q * in_stride;
      const std::size_t count = nnz[q];
      const std::int16_t* wdk =
          wtr + static_cast<std::size_t>(dk) * in_ch * out_pad + ob;
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = list[j];
        const __m512i xvec =
            _mm512_set1_epi32(static_cast<std::uint16_t>(xq[i]));
        const std::int16_t* wrow = wdk + i * out_pad;
        for (int b = 0; b < NB; ++b) {
          const __m512i w = _mm512_cvtepi16_epi32(_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wrow + 16 * b)));
          // (w, sign(w)) . (x, 0) = w*x exactly; vpsravd is the same floor
          // shift as the scalar `>>`.
          const __m512i term =
              _mm512_srav_epi32(_mm512_madd_epi16(w, xvec), shift_cnt);
          accv[b] = _mm512_add_epi32(accv[b], term);
        }
      }
    }
    std::int32_t* accp = acc + static_cast<std::size_t>(p) * out_pad + ob;
    for (int b = 0; b < NB; ++b) {
      _mm512_storeu_si512(accp + 16 * static_cast<std::size_t>(b), accv[b]);
    }
  }
}

}  // namespace

void conv1d_acc_i16_avx512(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t in_stride, std::size_t /*out_ch*/,
                           std::size_t out_pad, std::size_t k, int shift) {
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  std::size_t ob = 0;
  for (; ob + 64 <= out_pad; ob += 64) {
    narrow_block_pass<4>(x, nz, nnz, wtr, bias_acc, acc, pos, in_ch,
                         in_stride, out_pad, ob, kk, shift);
  }
  switch ((out_pad - ob) / 16) {
    case 3:
      narrow_block_pass<3>(x, nz, nnz, wtr, bias_acc, acc, pos, in_ch,
                           in_stride, out_pad, ob, kk, shift);
      break;
    case 2:
      narrow_block_pass<2>(x, nz, nnz, wtr, bias_acc, acc, pos, in_ch,
                           in_stride, out_pad, ob, kk, shift);
      break;
    case 1:
      narrow_block_pass<1>(x, nz, nnz, wtr, bias_acc, acc, pos, in_ch,
                           in_stride, out_pad, ob, kk, shift);
      break;
    default:
      break;
  }
}

void pack_i16_avx512(const std::int64_t* in, std::size_t positions,
                     std::size_t in_ch, std::size_t in_stride,
                     bool /*pairs*/, std::int16_t* x16, std::uint16_t* nz,
                     std::uint16_t* nnz) {
  // Channel lists only: the wrapper sends pair lists to the scalar body.
  // Each step narrows 16 channels with two vpmovqw (the same truncation as
  // static_cast<int16_t>; the prover guarantees it loses nothing), stores
  // them up to in_stride (lanes past in_ch load as zero, so the pad columns
  // are written zero), and appends the nonzero lanes' indices to the row's
  // list with vpcompressd + a masked vpmovdw of popcount entries: nothing is
  // written past the list's end.
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int64_t* src = in + p * in_ch;
    std::int16_t* dst = x16 + p * in_stride;
    std::uint16_t* list = nz + p * in_stride;
    std::size_t n = 0;
    for (std::size_t i = 0; i < in_stride; i += 16) {
      const std::size_t live =
          i < in_ch ? std::min<std::size_t>(16, in_ch - i) : 0;
      const std::size_t span = std::min<std::size_t>(16, in_stride - i);
      const auto lo_m = static_cast<__mmask8>(
          (1u << std::min<std::size_t>(live, 8)) - 1u);
      const auto hi_m =
          static_cast<__mmask8>((1u << (live > 8 ? live - 8 : 0)) - 1u);
      const __m128i lo =
          _mm512_cvtepi64_epi16(_mm512_maskz_loadu_epi64(lo_m, src + i));
      const __m128i hi =
          _mm512_cvtepi64_epi16(_mm512_maskz_loadu_epi64(hi_m, src + i + 8));
      const __m256i v =
          _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
      _mm256_mask_storeu_epi16(dst + i,
                               static_cast<__mmask16>((1u << span) - 1u), v);
      const __mmask16 m = _mm256_test_epi16_mask(v, v);
      const __m512i idx = _mm512_maskz_compress_epi32(
          m, _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(i))));
      const auto cnt = static_cast<unsigned>(__builtin_popcount(m));
      _mm512_mask_cvtepi32_storeu_epi16(
          list + n, static_cast<__mmask16>((1u << cnt) - 1u), idx);
      n += cnt;
    }
    nnz[p] = static_cast<std::uint16_t>(n);
  }
}

void maxpool_i64_avx512(const std::int64_t* in, std::int64_t* out,
                        std::size_t positions, std::size_t ch,
                        std::size_t factor, const hd::Requant& rq,
                        std::size_t& saturations) {
  const RQ8 r8(rq);  // |shift| < 63 (the wrapper routes shift <= -63 away)
  std::size_t sat = 0;
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int64_t* rows = in + p * factor * ch;
    std::int64_t* yp = out + p * ch;
    for (std::size_t c = 0; c < ch; c += 8) {
      // Lanes past ch load as zero and are neither stored nor counted.
      const auto live = static_cast<__mmask8>(
          (1u << std::min<std::size_t>(8, ch - c)) - 1u);
      __m512i v = _mm512_maskz_loadu_epi64(live, rows + c);
      for (std::size_t d = 1; d < factor; ++d) {
        v = _mm512_max_epi64(
            v, _mm512_maskz_loadu_epi64(live, rows + d * ch + c));
      }
      __mmask8 m;
      v = requant8(v, r8, m);
      sat += static_cast<std::size_t>(__builtin_popcount(m & live));
      _mm512_mask_storeu_epi64(yp + c, live, v);
    }
  }
  saturations += sat;
}

}  // namespace reads::hls::kernels::detail

#endif  // READS_QKERNELS_AVX512
