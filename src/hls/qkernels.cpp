#include "hls/qkernels.hpp"

#include <algorithm>

namespace reads::hls::kernels {

namespace detail {

// Scalar fallback: 4-wide output blocking over the transposed weight row,
// one activation load shared across the block. This wide path keeps a
// per-channel zero test ((0 * w) >> shift contributes exactly 0); it only
// runs layers the range prover cannot clear. The narrow lanes below skip
// zeros through pack_i16's nonzero lists instead.
void conv1d_acc_scalar(const std::int64_t* x, const std::int64_t* wtr,
                       const std::int64_t* bias_acc, std::int64_t* acc,
                       std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k, int shift) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    std::int64_t* accp = acc + static_cast<std::size_t>(p) * out_ch;
    std::copy(bias_acc, bias_acc + out_ch, accp);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const std::int64_t* xq =
          x + static_cast<std::size_t>(p + dk - pad) * in_ch;
      const std::int64_t* wdk = wtr + static_cast<std::size_t>(dk) * in_ch * out_ch;
      for (std::size_t i = 0; i < in_ch; ++i) {
        const std::int64_t xv = xq[i];
        if (xv == 0) continue;
        const std::int64_t* wrow = wdk + i * out_ch;
        std::size_t o = 0;
        for (; o + 4 <= out_ch; o += 4) {
          accp[o + 0] += (wrow[o + 0] * xv) >> shift;
          accp[o + 1] += (wrow[o + 1] * xv) >> shift;
          accp[o + 2] += (wrow[o + 2] * xv) >> shift;
          accp[o + 3] += (wrow[o + 3] * xv) >> shift;
        }
        for (; o < out_ch; ++o) accp[o] += (wrow[o] * xv) >> shift;
      }
    }
  }
}

// Scalar narrow lane. Products are computed in int32 (the prover certified
// |w|, |x| <= 2^15 so w*x fits) and the accumulator is int32 on purpose:
// the prover's envelope says no partial sum can leave int32, and keeping
// the scalar path at the same width as the SIMD lanes means a prover bug
// shows up as a sanitizer report in the property tests instead of silently
// diverging between variants. Only the row's listed nonzero channels are
// visited. Each output row accumulates in narrow_weights' slot order, so
// the inner loop runs over one contiguous weight row (and vectorizes), and
// is put back in natural order once the row is done: in a full 32-output
// block slot 2j is output ob + j and slot 2j + 1 output ob + 16 + j. Its
// pad outputs carry zero weights and bias, so they sum to zero.
void conv1d_acc_i16_scalar(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t out_ch, std::size_t out_pad,
                           std::size_t k, int shift) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  const std::size_t full = out_pad & ~std::size_t{31};
  const std::size_t slots = std::max(out_ch, full);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    std::int32_t* accp = acc + static_cast<std::size_t>(p) * out_pad;
    for (std::size_t ob = 0; ob < full; ob += 32) {
      for (std::size_t j = 0; j < 16; ++j) {
        accp[ob + 2 * j] = bias_acc[ob + j];
        accp[ob + 2 * j + 1] = bias_acc[ob + 16 + j];
      }
    }
    std::copy(bias_acc + full, bias_acc + slots, accp + full);
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
        const std::int32_t xv = xq[i];
        const std::int16_t* wrow = wdk + i * out_pad;
        std::size_t o = 0;
        for (; o + 4 <= slots; o += 4) {
          accp[o + 0] += (wrow[o + 0] * xv) >> shift;
          accp[o + 1] += (wrow[o + 1] * xv) >> shift;
          accp[o + 2] += (wrow[o + 2] * xv) >> shift;
          accp[o + 3] += (wrow[o + 3] * xv) >> shift;
        }
        for (; o < slots; ++o) accp[o] += (wrow[o] * xv) >> shift;
      }
    }
    for (std::size_t ob = 0; ob < full; ob += 32) {
      std::int32_t slot[32];
      std::copy(accp + ob, accp + ob + 32, slot);
      for (std::size_t j = 0; j < 16; ++j) {
        accp[ob + j] = slot[2 * j];
        accp[ob + 16 + j] = slot[2 * j + 1];
      }
    }
  }
}

void pack_i16_scalar(const std::int64_t* in, std::size_t positions,
                     std::size_t in_ch, std::int16_t* x16, std::uint16_t* nz,
                     std::uint16_t* nnz) {
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int64_t* src = in + p * in_ch;
    std::int16_t* dst = x16 + p * in_ch;
    for (std::size_t i = 0; i < in_ch; ++i) {
      dst[i] = static_cast<std::int16_t>(src[i]);
    }
    // Branch-free compaction: every index is written, and the count only
    // advances past the nonzero ones.
    std::uint16_t* list = nz + p * in_ch;
    std::size_t n = 0;
    for (std::size_t i = 0; i < in_ch; ++i) {
      list[n] = static_cast<std::uint16_t>(i);
      n += static_cast<std::size_t>(dst[i] != 0);
    }
    nnz[p] = static_cast<std::uint16_t>(n);
  }
}

namespace hd = ::reads::hls::detail;

void maxpool_i64_scalar(const std::int64_t* in, std::int64_t* out,
                        std::size_t positions, std::size_t ch,
                        std::size_t factor, const hd::Requant& rq,
                        std::size_t& saturations) {
  for (std::size_t p = 0; p < positions; ++p) {
    for (std::size_t c = 0; c < ch; ++c) {
      std::int64_t m = in[(p * factor) * ch + c];
      for (std::size_t d = 1; d < factor; ++d) {
        m = std::max(m, in[(p * factor + d) * ch + c]);
      }
      out[p * ch + c] = rq.apply(m, saturations);
    }
  }
}

void requant_i64_scalar(const std::int64_t* in, std::int64_t* out,
                        std::size_t n, const hd::Requant& rq, bool relu,
                        std::size_t& saturations) {
  if (relu) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rq.apply(std::max<std::int64_t>(0, in[i]), saturations);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = rq.apply(in[i], saturations);
  }
}

void finalize_i32_scalar(const std::int32_t* acc, std::int64_t* out,
                         std::size_t positions, std::size_t out_ch,
                         std::size_t acc_stride, const hd::Accum& ac,
                         std::size_t& overflows, std::size_t& saturations) {
  for (std::size_t p = 0; p < positions; ++p) {
    const std::int32_t* accp = acc + p * acc_stride;
    std::int64_t* yp = out + p * out_ch;
    for (std::size_t o = 0; o < out_ch; ++o) {
      yp[o] = ac.finalize(accp[o], overflows, saturations);
    }
  }
}

#if defined(READS_QKERNELS_AVX512)
void conv1d_acc_avx512(const std::int64_t* x, const std::int64_t* wtr,
                       const std::int64_t* bias_acc, std::int64_t* acc,
                       std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k, int shift);
void requant_i64_avx512(const std::int64_t* in, std::int64_t* out,
                        std::size_t n, const hd::Requant& rq, bool relu,
                        std::size_t& saturations);
void finalize_i32_avx512(const std::int32_t* acc, std::int64_t* out,
                         std::size_t positions, std::size_t out_ch,
                         std::size_t acc_stride, const hd::Accum& ac,
                         std::size_t& overflows, std::size_t& saturations);
void conv1d_acc_i16_avx512(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t out_ch, std::size_t out_pad,
                           std::size_t k, int shift);
void pack_i16_avx512(const std::int64_t* in, std::size_t positions,
                     std::size_t in_ch, std::int16_t* x16, std::uint16_t* nz,
                     std::uint16_t* nnz);
void maxpool_i64_avx512(const std::int64_t* in, std::int64_t* out,
                        std::size_t positions, std::size_t ch,
                        std::size_t factor, const hd::Requant& rq,
                        std::size_t& saturations);
#endif

using KernelFn = void (*)(const std::int64_t*, const std::int64_t*,
                          const std::int64_t*, std::int64_t*, std::size_t,
                          std::size_t, std::size_t, std::size_t, int);
using NarrowFn = void (*)(const std::int16_t*, const std::uint16_t*,
                          const std::uint16_t*, const std::int16_t*,
                          const std::int32_t*, std::int32_t*, std::size_t,
                          std::size_t, std::size_t, std::size_t, std::size_t,
                          int);
using RequantFn = void (*)(const std::int64_t*, std::int64_t*, std::size_t,
                           const hd::Requant&, bool, std::size_t&);
using FinalizeFn = void (*)(const std::int32_t*, std::int64_t*, std::size_t,
                            std::size_t, std::size_t, const hd::Accum&,
                            std::size_t&, std::size_t&);
using PackFn = void (*)(const std::int64_t*, std::size_t, std::size_t,
                        std::int16_t*, std::uint16_t*, std::uint16_t*);
using MaxPoolFn = void (*)(const std::int64_t*, std::int64_t*, std::size_t,
                           std::size_t, std::size_t, const hd::Requant&,
                           std::size_t&);

struct Dispatch {
  KernelFn fn = conv1d_acc_scalar;
  const char* name = "scalar";
  NarrowFn narrow = conv1d_acc_i16_scalar;
  const char* narrow_name = "scalar";
  RequantFn requant = requant_i64_scalar;
  FinalizeFn finalize = finalize_i32_scalar;
  PackFn pack = pack_i16_scalar;
  MaxPoolFn maxpool = maxpool_i64_scalar;
};

Dispatch resolve() {
  Dispatch d;
#if defined(__GNUC__) && defined(__x86_64__) && defined(READS_QKERNELS_AVX512)
  // avx512f is the foundation bit: dq/vl/bw extend it, they do not imply
  // it, and a CPU reporting extensions without the foundation must not take
  // the 512-bit paths. The AVX-512 file is built with -mavx512bw (vpmaddwd
  // on zmm, vptestmw), so the compiler may use BW instructions anywhere in
  // it: every kernel it holds needs the bw bit, not only the narrow lane.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    d.fn = conv1d_acc_avx512;
    d.name = "avx512";
    d.narrow = conv1d_acc_i16_avx512;
    d.narrow_name = "avx512";
    d.requant = requant_i64_avx512;
    d.finalize = finalize_i32_avx512;
    d.pack = pack_i16_avx512;
    d.maxpool = maxpool_i64_avx512;
  }
#endif
  return d;
}

const Dispatch& dispatch() {
  static const Dispatch d = resolve();
  return d;
}

}  // namespace detail

std::vector<std::int16_t> narrow_weights(const std::int64_t* w,
                                         std::size_t out_ch, std::size_t k,
                                         std::size_t in_ch) {
  const std::size_t out_pad = narrow_out_pad(out_ch);
  const std::size_t full = out_pad & ~std::size_t{31};
  std::vector<std::int16_t> wtr(k * in_ch * out_pad);
  // Written in destination order; the source reads of one row touch one
  // cache line per output, which the next input channel reuses.
  std::int16_t* dst = wtr.data();
  const auto at = [&](std::size_t o, std::size_t r) {
    return o < out_ch ? static_cast<std::int16_t>(w[o * k * in_ch + r])
                      : std::int16_t{0};
  };
  for (std::size_t dk = 0; dk < k; ++dk) {
    for (std::size_t c = 0; c < in_ch; ++c) {
      const std::size_t r = dk * in_ch + c;  // (tap, input) offset in w
      for (std::size_t ob = 0; ob < full; ob += 32) {
        for (std::size_t j = 0; j < 16; ++j) {
          *dst++ = at(ob + j, r);
          *dst++ = at(ob + 16 + j, r);
        }
      }
      for (std::size_t o = full; o < out_pad; ++o) *dst++ = at(o, r);
    }
  }
  return wtr;
}

void conv1d_acc(const std::int64_t* x, const std::int64_t* wtr,
                const std::int64_t* bias_acc, std::int64_t* acc,
                std::size_t positions, std::size_t in_ch, std::size_t out_ch,
                std::size_t k, int shift) {
  detail::dispatch().fn(x, wtr, bias_acc, acc, positions, in_ch, out_ch, k,
                        shift);
}

void pack_i16(const std::int64_t* in, std::size_t positions,
              std::size_t in_ch, std::int16_t* x16, std::uint16_t* nz,
              std::uint16_t* nnz) {
  detail::dispatch().pack(in, positions, in_ch, x16, nz, nnz);
}

void conv1d_acc_i16(const std::int16_t* x, const std::uint16_t* nz,
                    const std::uint16_t* nnz, const std::int16_t* wtr,
                    const std::int32_t* bias_acc, std::int32_t* acc,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t out_pad, std::size_t k,
                    int shift) {
  detail::dispatch().narrow(x, nz, nnz, wtr, bias_acc, acc, positions, in_ch,
                            out_ch, out_pad, k, shift);
}

void requant_i64(const std::int64_t* in, std::int64_t* out, std::size_t n,
                 const reads::hls::detail::Requant& rq, bool relu,
                 std::size_t& saturations) {
  // shift <= -63 means every nonzero input saturates (Requant::apply's
  // k >= 63 special case), and shift >= 64 rounds (almost) everything to
  // zero; the SIMD path precomputes its constants with shifts that must
  // stay < 64 either way, so route both degenerate bands to the scalar
  // loop. Ordinary widening (0 > shift > -63) runs vectorized — PTQ specs
  // widen on most encoder-side layers, so this path is hot, not rare.
  if (rq.shift <= -63 || rq.shift >= 64) {
    detail::requant_i64_scalar(in, out, n, rq, relu, saturations);
    return;
  }
  detail::dispatch().requant(in, out, n, rq, relu, saturations);
}

void maxpool_i64(const std::int64_t* in, std::int64_t* out,
                 std::size_t positions, std::size_t ch, std::size_t factor,
                 const reads::hls::detail::Requant& rq,
                 std::size_t& saturations) {
  // Same degenerate bands as requant_i64.
  if (rq.shift <= -63 || rq.shift >= 64) {
    detail::maxpool_i64_scalar(in, out, positions, ch, factor, rq,
                               saturations);
    return;
  }
  detail::dispatch().maxpool(in, out, positions, ch, factor, rq, saturations);
}

void finalize_i32(const std::int32_t* acc, std::int64_t* out,
                  std::size_t positions, std::size_t out_ch,
                  std::size_t acc_stride, const reads::hls::detail::Accum& ac,
                  std::size_t& overflows, std::size_t& saturations) {
  if (ac.out.shift <= -63 || ac.out.shift >= 64) {
    detail::finalize_i32_scalar(acc, out, positions, out_ch, acc_stride, ac,
                                overflows, saturations);
    return;
  }
  detail::dispatch().finalize(acc, out, positions, out_ch, acc_stride, ac,
                              overflows, saturations);
}

const char* variant() noexcept { return detail::dispatch().name; }
const char* narrow_variant() noexcept {
  return detail::dispatch().narrow_name;
}
const char* narrow_dp_variant() noexcept {
#if defined(__GNUC__) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni")) {
    return "avx512-vnni";
  }
#endif
  return "scalar";
}

}  // namespace reads::hls::kernels
