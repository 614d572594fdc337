// AVX-512 variants of the quantized executor's kernels: the wide and narrow
// Conv1D/Dense accumulators and the write-out every producer layer ends
// in. This translation unit is compiled with -mavx512f -mavx512dq
// -mavx512vl -mavx512bw (see src/hls/CMakeLists.txt) and is only ever
// called after a runtime __builtin_cpu_supports check in qkernels.cpp.
//
// The wide accumulator is exact int64 (vpmullq products fit comfortably:
// |w|, |x| < 2^24, so |w*x| < 2^48; vpsraq is the same floor shift as the
// scalar `>>`). The narrow accumulator and the write-out run int32 lanes
// only where the range prover's bounds make int32 exact, so every sum,
// every requant and every overflow/saturation count is bit-identical to
// the scalar code.
#if defined(READS_QKERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "hls/accum.hpp"
#include "hls/qkernels.hpp"

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
                 std::ptrdiff_t pos, std::size_t in_ch, std::size_t out_pad,
                 std::ptrdiff_t kk, __m512i shift_cnt) {
  constexpr std::size_t NB = 2 * NP + (T ? 1 : 0);
  const auto pad = kk / 2;
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    __m512i accv[NB];
    load_bias<NB>(accv, bias);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const auto q = static_cast<std::size_t>(p + dk - pad);
      const std::int16_t* xq = x + q * in_ch;
      const std::uint16_t* list = nz + q * in_ch;
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
                    std::size_t out_pad, __m512i shift_cnt) {
  constexpr std::size_t NB = 2 * NP + (T ? 1 : 0);
  const std::size_t tap = in_ch * out_pad;
  // Accumulate row q into prev (output q - 1, tap 2), cur (q, tap 1) and
  // next (q + 1, tap 0); then store prev as output q - 1 if it exists and
  // reload it with the bias.
  const auto row = [&](std::ptrdiff_t q, __m512i* prev, __m512i* cur,
                       __m512i* next) __attribute__((always_inline)) {
    const auto qq = static_cast<std::size_t>(q);
    const std::int16_t* xq = x + qq * in_ch;
    const std::uint16_t* list = nz + qq * in_ch;
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
                     std::size_t out_pad, std::ptrdiff_t kk,
                     __m512i shift_cnt) {
  if (kk == 3) {
    narrow_pass_k3<NP, T>(x, nz, nnz, wtr, bias, acc, pos, in_ch, out_pad,
                          shift_cnt);
  } else {
    narrow_pass<NP, T>(x, nz, nnz, wtr, bias, acc, pos, in_ch, out_pad, kk,
                       shift_cnt);
  }
}

}  // namespace

void conv1d_acc_i16_avx512(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t /*out_ch*/, std::size_t out_pad,
                           std::size_t k, int shift) {
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
                              pos, in_ch, out_pad, kk, shift_cnt);
  }
  const auto run = [&](auto np, auto t) {
    narrow_dispatch<decltype(np)::value, decltype(t)::value>(
        x, nz, nnz, wtr + ob, bias_acc + ob, acc + ob, pos, in_ch, out_pad,
        kk, shift_cnt);
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

namespace {

// Precomputed 16-lane int32 constants for one Requant (Epilogue::narrow
// certifies |shift| < 32 and lo/hi inside int32).
struct RQ16 {
  int shift = 0;
  __m128i cnt;     // |shift| as a shift count
  __m512i vhalf;   // rounding bias, shift > 0 only
  __m512i vlo, vhi;

  RQ16() = default;
  explicit RQ16(const hd::Requant& rq)
      : shift(rq.shift),
        cnt(_mm_cvtsi32_si128(rq.shift >= 0 ? rq.shift : -rq.shift)),
        vhalf(_mm512_set1_epi32(rq.shift > 0 ? 1 << (rq.shift - 1) : 0)),
        vlo(_mm512_set1_epi32(static_cast<int>(rq.lo))),
        vhi(_mm512_set1_epi32(static_cast<int>(rq.hi))) {}
};

// 16-lane Requant::apply, exact because Epilogue::narrow certifies that
// neither v + half nor v << k leaves int32 on any lane it meets. shift > 0
// rounds half away from zero as (v + half - [v < 0]) >> shift, an
// arithmetic floor shift: for v < 0 that is -((|v| + half) >> shift),
// the scalar's magnitude rounding. shift < 0 shifts left. Then clamp; a
// live lane saturated iff the clamp moved it, which counts exactly the
// scalar's events.
inline __m512i requant16(__m512i v, const RQ16& rq, __mmask16 live,
                         std::size_t& events) {
  __m512i t = v;
  if (rq.shift > 0) {
    t = _mm512_sra_epi32(
        _mm512_add_epi32(_mm512_add_epi32(v, rq.vhalf),
                         _mm512_srai_epi32(v, 31)),
        rq.cnt);
  } else if (rq.shift < 0) {
    t = _mm512_sll_epi32(v, rq.cnt);
  }
  const __m512i c = _mm512_max_epi32(_mm512_min_epi32(t, rq.vhi), rq.vlo);
  events += static_cast<std::size_t>(
      __builtin_popcount(_mm512_mask_cmpneq_epi32_mask(live, c, t)));
  return c;
}

inline __mmask16 live16(std::size_t left) {
  return left >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << left) - 1u);
}

inline std::size_t popcount16(__mmask16 m) {
  return static_cast<std::size_t>(__builtin_popcount(m));
}

// 16 source values as int32 lanes; lanes outside `live` load as zero.
// int64 sources narrow with two vpmovqd: Epilogue::narrow certifies that
// every source value fits int32.
inline __m512i load16(const std::int16_t* p, __mmask16 live) {
  return _mm512_cvtepi16_epi32(_mm256_maskz_loadu_epi16(live, p));
}
inline __m512i load16(const std::int32_t* p, __mmask16 live) {
  return _mm512_maskz_loadu_epi32(live, p);
}
inline __m512i load16(const std::int64_t* p, __mmask16 live) {
  const __m256i lo = _mm512_cvtepi64_epi32(
      _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live), p));
  const __m256i hi = _mm512_cvtepi64_epi32(
      _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live >> 8), p + 8));
  return _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
}

// A group of stages (the common ones, or one sink's): vector constants and
// per-stage event counts, added to ForwardStats by flush().
struct StageGroup {
  RQ16 rq[kVectorStages];
  bool relu[kVectorStages] = {};
  std::size_t events[kVectorStages] = {};
  const Stage* first = nullptr;
  std::size_t n = 0;

  StageGroup() = default;
  StageGroup(const Stage* b, const Stage* e)
      : first(b), n(static_cast<std::size_t>(e - b)) {
    for (std::size_t i = 0; i < n; ++i) {
      rq[i] = RQ16(b[i].rq);
      relu[i] = b[i].relu;
    }
  }

  // Stage by stage over `rows` rows of `vecs` vectors each, in -> out for
  // the first stage and then in place; vector k of a row has lanes
  // live[k]. One stage's constants and count stay in registers.
  void apply(const __m512i* in, __m512i* out, std::size_t rows,
             std::size_t vecs, const __mmask16* live) {
    for (std::size_t i = 0; i < n; ++i) {
      const __m512i* from = i == 0 ? in : out;
      const RQ16 r = rq[i];
      std::size_t ev = 0;
      for (std::size_t q = 0; q < rows * vecs; q += vecs) {
        for (std::size_t k = 0; k < vecs; ++k) {
          __m512i v = from[q + k];
          if (relu[i]) v = _mm512_max_epi32(v, _mm512_setzero_si512());
          out[q + k] = requant16(v, r, live[k], ev);
        }
      }
      events[i] += ev;
    }
  }

  void flush(std::size_t* sat) const {
    for (std::size_t i = 0; i < n; ++i) {
      sat[first[i].layer] += events[i] * first[i].mult;
    }
  }
};

// One int16 slab row a sink writes, 16 values per put(): narrowed with
// vpmovdw, the nonzero ones' channels appended to the row's list by
// vpcompressd and a masked vpmovdw of popcount entries, so nothing is
// written past the list's end. Values past `left` are neither stored nor
// listed.
struct RowOut {
  std::int16_t* values = nullptr;
  std::uint16_t* list = nullptr;
  std::uint16_t* nnz = nullptr;
  std::size_t k = 0;
  __m512i idx = _mm512_setzero_si512();

  RowOut(std::byte* block, const Sink& s, std::size_t r)
      : values(reinterpret_cast<std::int16_t*>(block + s.values) +
               r * s.stride + s.channel) {
    if (!s.lists) return;
    nnz = reinterpret_cast<std::uint16_t*>(block + s.nnz) + r;
    list = reinterpret_cast<std::uint16_t*>(block + s.nz) + r * s.stride;
    k = s.reset ? 0 : *nnz;
    idx = _mm512_add_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(s.channel)));
  }

  void put(std::size_t c, __m512i v, __mmask16 live) {
    const __m256i x = _mm512_cvtepi32_epi16(v);
    _mm256_mask_storeu_epi16(values + c, live, x);
    if (list == nullptr) return;
    const __mmask16 m = _mm256_test_epi16_mask(x, x) & live;
    const auto cnt = static_cast<unsigned>(__builtin_popcount(m));
    _mm512_mask_cvtepi32_storeu_epi16(list + k,
                                      static_cast<__mmask16>((1u << cnt) - 1u),
                                      _mm512_maskz_compress_epi32(m, idx));
    k += cnt;
    idx = _mm512_add_epi32(idx, _mm512_set1_epi32(16));
  }

  void close() const {
    if (list != nullptr) *nnz = static_cast<std::uint16_t>(k);
  }
};

// The `vecs` vectors of output row `row`, vector k with lanes live[k]: the
// max over `pool` source rows, finalized (wrap, then the accumulator's
// requant).
// Wrap is the scalar mask-and-or sign extension of the low ring_bits, done
// as a shift-left/arithmetic-shift-right pair, which leaves lanes inside
// the ring as they are: the lanes it moved are the overflows. A ring of 32
// bits or more holds every int32 and never wraps.
template <typename T>
struct Front {
  std::size_t stride;
  std::size_t pool;
  const hd::Accum* ac;
  bool can_wrap;
  __m128i wrap_cnt;
  RQ16 out;
  std::size_t ovf = 0;
  std::size_t sat = 0;

  explicit Front(const Rows<T>& src)
      : stride(src.stride),
        pool(src.pool),
        ac(src.accum),
        can_wrap(ac != nullptr && ac->ring_bits < 32),
        wrap_cnt(_mm_cvtsi32_si128(can_wrap ? 32 - ac->ring_bits : 0)),
        out(ac ? ac->out : hd::Requant{}) {}

  void load(const T* row, std::size_t vecs, const __mmask16* live,
            __m512i* v) {
    for (std::size_t k = 0; k < vecs; ++k) {
      const T* at = row + 16 * k;
      __m512i x = load16(at, live[k]);
      for (std::size_t d = 1; d < pool; ++d) {
        x = _mm512_max_epi32(x, load16(at + d * stride, live[k]));
      }
      if (ac != nullptr) {
        if (can_wrap) {
          const __m512i wr =
              _mm512_sra_epi32(_mm512_sll_epi32(x, wrap_cnt), wrap_cnt);
          ovf += popcount16(_mm512_mask_cmpneq_epi32_mask(live[k], wr, x));
          x = wr;
        }
        x = requant16(x, out, live[k], sat);
      }
      v[k] = x;
    }
  }
};

// As many whole output rows as fit a buffer of kRowVecs vectors at a time
// (vectorizable() admits rows of up to kVectorRow values): the front and
// the common stages into the buffer, then per sink its own stages and, per
// row and replica, the stores.
template <typename T>
void write_out_body(const Rows<T>& src, const Epilogue& ep, std::byte* block,
                    std::size_t* sat, std::size_t* ovf) {
  constexpr std::size_t kRowVecs = kVectorRow / 16;
  Front<T> front(src);
  StageGroup common(ep.stages.data(), ep.stages.data() + ep.common);
  const std::size_t sinks = ep.sinks.size();
  StageGroup own[kVectorSinks];
  for (std::size_t j = 0; j < sinks; ++j) {
    const Sink& s = ep.sinks[j];
    own[j] = StageGroup(ep.stages.data() + s.stage_begin,
                        ep.stages.data() + s.stage_end);
  }
  const std::size_t vecs = (src.ch + 15) / 16;
  __mmask16 live[kRowVecs];
  for (std::size_t k = 0; k < vecs; ++k) live[k] = live16(src.ch - 16 * k);
  const std::size_t per_chunk = kRowVecs / vecs;
  __m512i v[kRowVecs];
  __m512i w[kRowVecs];
  for (std::size_t p0 = 0; p0 < src.positions; p0 += per_chunk) {
    const std::size_t rows = std::min(per_chunk, src.positions - p0);
    for (std::size_t r = 0; r < rows; ++r) {
      front.load(src.data + (p0 + r) * src.pool * src.stride, vecs, live,
                 v + r * vecs);
    }
    common.apply(v, v, rows, vecs, live);
    for (std::size_t j = 0; j < sinks; ++j) {
      const Sink& s = ep.sinks[j];
      const __m512i* out = v;
      if (own[j].n > 0) {
        own[j].apply(v, w, rows, vecs, live);
        out = w;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t d = 0; d < s.rep; ++d) {
          RowOut row(block, s, (p0 + r) * s.rep + d);
          for (std::size_t k = 0; k < vecs; ++k) {
            row.put(16 * k, out[r * vecs + k], live[k]);
          }
          row.close();
        }
      }
    }
  }
  ovf[ep.layer] += front.ovf;
  sat[ep.layer] += front.sat;
  common.flush(sat);
  for (std::size_t j = 0; j < sinks; ++j) own[j].flush(sat);
}

}  // namespace

void write_out_avx512(const Rows<std::int16_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_body(src, ep, block, sat, ovf);
}
void write_out_avx512(const Rows<std::int32_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_body(src, ep, block, sat, ovf);
}
void write_out_avx512(const Rows<std::int64_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_body(src, ep, block, sat, ovf);
}

}  // namespace reads::hls::kernels::detail

#endif  // READS_QKERNELS_AVX512
