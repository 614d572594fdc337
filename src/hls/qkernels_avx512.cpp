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
#include <type_traits>

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
  // `live` masks the last n % 8 lanes: lanes past n load as zero and are
  // neither stored nor counted.
  const auto step = [&](std::size_t i, __mmask8 live)
                        __attribute__((always_inline)) {
    __m512i v = _mm512_maskz_loadu_epi64(live, in + i);
    if (relu) v = _mm512_max_epi64(v, zero);
    __mmask8 m;
    v = requant8(v, r8, m);
    sat += static_cast<std::size_t>(__builtin_popcount(m & live));
    _mm512_mask_storeu_epi64(out + i, live, v);
  };
  const std::size_t main = n & ~std::size_t{7};
  for (std::size_t i = 0; i < main; i += 8) step(i, 0xFF);
  if (n > main) step(main, static_cast<__mmask8>((1u << (n - main)) - 1u));
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
  // One 8-lane step: `live` masks the row's last out_ch % 8 lanes, which
  // load as zero and are neither stored nor counted (the pad lanes of the
  // out_pad-stride accumulator rows hold whatever the kernel left there).
  const auto step = [&](const std::int32_t* ap, std::int64_t* yp,
                        __mmask8 live) __attribute__((always_inline)) {
    __m512i v = _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(live, ap));
    if (can_wrap) {
      const auto w = static_cast<__mmask8>(
          (_mm512_cmplt_epi64_mask(v, ring_lo) |
           _mm512_cmplt_epi64_mask(ring_hi, v)) &
          live);
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
    sat += static_cast<std::size_t>(__builtin_popcount(m & live));
    _mm512_mask_storeu_epi64(yp, live, v);
  };
  const std::size_t o_main = out_ch & ~std::size_t{7};
  const auto tail = static_cast<__mmask8>((1u << (out_ch - o_main)) - 1u);
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int32_t* ap = acc + p * acc_stride;
    std::int64_t* yp = out + p * out_ch;
    for (std::size_t o = 0; o < o_main; o += 8) step(ap + o, yp + o, 0xFF);
    if (tail) step(ap + o_main, yp + o_main, tail);
  }
  overflows += ovf;
  saturations += sat;
}

namespace {

// The narrow lane's MAC over one weight row of a pass: NP interleaved
// 32-output blocks, then (T) a trailing natural-order 16-output block, into
// 2 * NP + T int32 accumulators holding the pass's outputs in natural order.
//
// Per 16 lanes of an interleaved block this is 3 vector uops: vpmaddwd,
// vpsravd, vpaddd, plus half a 64-byte load. A 32-bit weight lane holds
// (w[ob+j], w[ob+16+j]) as two int16 halves; against the activation
// broadcast as (x, 0) vpmaddwd returns w[ob+j]*x, against (0, x) it
// returns w[ob+16+j]*x. Either product fits int32 by the prover's int16
// bounds (even -32768 * -32768 = 2^30), so both are exact, and vpsravd by
// a broadcast count is the same floor shift as the scalar `>>`. The
// trailing block widens its weights with vpmovsxwd to (w, sign(w)) and
// takes the (x, 0) product: 4 uops per 16 lanes.
template <int NP, bool T>
inline void mac_row(__m512i* accv, const std::int16_t* wrow, __m512i xlo,
                    __m512i xhi, __m512i shift_cnt) {
  for (int b = 0; b < NP; ++b) {
    const __m512i w = _mm512_loadu_si512(wrow + 32 * b);
    accv[2 * b] = _mm512_add_epi32(
        accv[2 * b], _mm512_srav_epi32(_mm512_madd_epi16(w, xlo), shift_cnt));
    accv[2 * b + 1] = _mm512_add_epi32(
        accv[2 * b + 1],
        _mm512_srav_epi32(_mm512_madd_epi16(w, xhi), shift_cnt));
  }
  if constexpr (T) {
    const __m512i w = _mm512_cvtepi16_epi32(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(wrow + 32 * NP)));
    accv[2 * NP] = _mm512_add_epi32(
        accv[2 * NP], _mm512_srav_epi32(_mm512_madd_epi16(w, xlo), shift_cnt));
  }
}

inline __m512i broadcast_lo(std::int16_t v) {  // (x, 0) per 32-bit lane
  return _mm512_set1_epi32(static_cast<std::uint16_t>(v));
}
inline __m512i broadcast_hi(std::int16_t v) {  // (0, x) per 32-bit lane
  return _mm512_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(static_cast<std::uint16_t>(v))
                       << 16));
}

template <std::size_t NB>
inline void load_bias(__m512i* accv, const std::int32_t* bias) {
  for (std::size_t b = 0; b < NB; ++b) {
    accv[b] = _mm512_loadu_si512(bias + 16 * b);
  }
}

template <std::size_t NB>
inline void store_row(std::int32_t* dst, const __m512i* accv) {
  for (std::size_t b = 0; b < NB; ++b) {
    _mm512_storeu_si512(dst + 16 * b, accv[b]);
  }
}

/// Output-stationary pass (any k) over the outputs [ob, ob + 32 * NP + 16 *
/// T): one accumulator set stays in registers for a whole output row while
/// its taps' input rows stream past. The input loop walks each row's
/// nonzero list, so its trip count is the only data-dependent control flow.
template <int NP, bool T>
void narrow_pass(const std::int16_t* x, const std::uint16_t* nz,
                 const std::uint16_t* nnz, const std::int16_t* wtr,
                 const std::int32_t* bias, std::int32_t* acc,
                 std::ptrdiff_t pos, std::size_t in_ch, std::size_t in_stride,
                 std::size_t out_pad, std::ptrdiff_t kk, __m512i shift_cnt) {
  constexpr std::size_t NB = 2 * NP + (T ? 1 : 0);
  const auto pad = kk / 2;
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    __m512i accv[NB];
    load_bias<NB>(accv, bias);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const auto q = static_cast<std::size_t>(p + dk - pad);
      const std::int16_t* xq = x + q * in_stride;
      const std::uint16_t* list = nz + q * in_stride;
      const std::int16_t* wdk =
          wtr + static_cast<std::size_t>(dk) * in_ch * out_pad;
      for (std::size_t j = 0; j < nnz[q]; ++j) {
        const std::size_t i = list[j];
        mac_row<NP, T>(accv, wdk + i * out_pad, broadcast_lo(xq[i]),
                       broadcast_hi(xq[i]), shift_cnt);
      }
    }
    store_row<NB>(acc + static_cast<std::size_t>(p) * out_pad, accv);
  }
}

/// Input-stationary k == 3 pass over the same outputs: input rows q are
/// walked once, and each listed nonzero of row q is loaded and broadcast
/// once and feeds output q + 1 through tap 0, q through tap 1 and q - 1
/// through tap 2. Three accumulator sets hold outputs q - 1, q and q + 1;
/// after row q the set for q - 1 is complete, so it is stored and reloaded
/// with the bias to become q + 2's. Rows are unrolled by 3 so the rotation
/// is static (the sets stay in registers). The sets for the out-of-range
/// outputs -1 and pos are computed but never stored. Exact for the same
/// reason as the output-stationary order: the prover bounds every partial
/// sum "bias first, any subset of taps in any order".
template <int NP, bool T>
void narrow_pass_k3(const std::int16_t* x, const std::uint16_t* nz,
                    const std::uint16_t* nnz, const std::int16_t* wtr,
                    const std::int32_t* bias, std::int32_t* acc,
                    std::ptrdiff_t pos, std::size_t in_ch,
                    std::size_t in_stride, std::size_t out_pad,
                    __m512i shift_cnt) {
  constexpr std::size_t NB = 2 * NP + (T ? 1 : 0);
  const std::size_t tap = in_ch * out_pad;
  // Accumulate row q into prev (output q - 1, tap 2), cur (q, tap 1) and
  // next (q + 1, tap 0); then store prev as output q - 1 if it exists and
  // reload it with the bias.
  const auto row = [&](std::ptrdiff_t q, __m512i* prev, __m512i* cur,
                       __m512i* next) __attribute__((always_inline)) {
    const auto qq = static_cast<std::size_t>(q);
    const std::int16_t* xq = x + qq * in_stride;
    const std::uint16_t* list = nz + qq * in_stride;
    for (std::size_t j = 0; j < nnz[qq]; ++j) {
      const std::size_t i = list[j];
      const __m512i xlo = broadcast_lo(xq[i]);
      const __m512i xhi = broadcast_hi(xq[i]);
      const std::int16_t* w0 = wtr + i * out_pad;
      mac_row<NP, T>(next, w0, xlo, xhi, shift_cnt);
      mac_row<NP, T>(cur, w0 + tap, xlo, xhi, shift_cnt);
      mac_row<NP, T>(prev, w0 + 2 * tap, xlo, xhi, shift_cnt);
    }
    if (q > 0) store_row<NB>(acc + (qq - 1) * out_pad, prev);
    load_bias<NB>(prev, bias);
  };
  __m512i s0[NB];
  __m512i s1[NB];
  __m512i s2[NB];
  load_bias<NB>(s0, bias);  // output -1: never stored
  load_bias<NB>(s1, bias);
  load_bias<NB>(s2, bias);
  std::ptrdiff_t q = 0;
  for (; q + 3 <= pos; q += 3) {
    row(q, s0, s1, s2);
    row(q + 1, s1, s2, s0);
    row(q + 2, s2, s0, s1);
  }
  // The last output, pos - 1, is complete once row pos - 1 is in: it is
  // the set that row took as `cur`.
  __m512i* last = s0;
  if (pos - q == 1) {
    row(q, s0, s1, s2);
    last = s1;
  } else if (pos - q == 2) {
    row(q, s0, s1, s2);
    row(q + 1, s1, s2, s0);
    last = s2;
  }
  store_row<NB>(acc + static_cast<std::size_t>(pos - 1) * out_pad, last);
}

template <int NP, bool T>
void narrow_dispatch(const std::int16_t* x, const std::uint16_t* nz,
                     const std::uint16_t* nnz, const std::int16_t* wtr,
                     const std::int32_t* bias, std::int32_t* acc,
                     std::ptrdiff_t pos, std::size_t in_ch,
                     std::size_t in_stride, std::size_t out_pad,
                     std::ptrdiff_t kk, __m512i shift_cnt) {
  if (kk == 3) {
    narrow_pass_k3<NP, T>(x, nz, nnz, wtr, bias, acc, pos, in_ch, in_stride,
                          out_pad, shift_cnt);
  } else {
    narrow_pass<NP, T>(x, nz, nnz, wtr, bias, acc, pos, in_ch, in_stride,
                       out_pad, kk, shift_cnt);
  }
}

}  // namespace

void conv1d_acc_i16_avx512(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t in_stride, std::size_t /*out_ch*/,
                           std::size_t out_pad, std::size_t k, int shift) {
  if (positions == 0) return;
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  const __m512i shift_cnt = _mm512_set1_epi32(shift);
  // Passes of at most 5 16-lane accumulators per set (15 zmm for the three
  // k == 3 sets). A pass must not split an interleaved 32-output block, so
  // full passes hold 2 of them (64 outputs), and the last pass takes what
  // is left: up to 2 blocks plus the trailing natural-order 16 outputs.
  std::size_t ob = 0;
  for (; out_pad - ob > 80; ob += 64) {
    narrow_dispatch<2, false>(x, nz, nnz, wtr + ob, bias_acc + ob, acc + ob,
                              pos, in_ch, in_stride, out_pad, kk, shift_cnt);
  }
  const auto run = [&](auto np, auto t) {
    narrow_dispatch<decltype(np)::value, decltype(t)::value>(
        x, nz, nnz, wtr + ob, bias_acc + ob, acc + ob, pos, in_ch, in_stride,
        out_pad, kk, shift_cnt);
  };
  using std::integral_constant;
  switch ((out_pad - ob) / 16) {
    case 5: run(integral_constant<int, 2>{}, std::true_type{}); break;
    case 4: run(integral_constant<int, 2>{}, std::false_type{}); break;
    case 3: run(integral_constant<int, 1>{}, std::true_type{}); break;
    case 2: run(integral_constant<int, 1>{}, std::false_type{}); break;
    case 1: run(integral_constant<int, 0>{}, std::true_type{}); break;
    default: break;
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
