#include "hls/qkernels.hpp"

#include <algorithm>

namespace reads::hls::kernels {

namespace detail {

// Scalar fallback: 4-wide output blocking over the transposed weight row,
// one activation load shared across the block. This wide path keeps a
// per-channel zero test ((0 * w) >> shift contributes exactly 0); it only
// runs layers the range prover cannot clear. The narrow lanes below skip
// zeros through write_out's nonzero lists instead.
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

// The portable body works through each row in chunks of this many values,
// held as int64 on the stack while each sink reads them.
constexpr std::size_t kWriteOutChunk = 256;

// Apply stages [first, last) to n values: in -> out for the first stage,
// then in place. Counts go to sat[stage.layer], `mult` per event.
void run_stages(const std::int64_t* in, std::int64_t* out, std::size_t n,
                const Stage* first, const Stage* last, std::size_t* sat) {
  for (const Stage* st = first; st != last; ++st) {
    const std::int64_t* from = st == first ? in : out;
    std::size_t events = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t v = st->relu ? std::max<std::int64_t>(0, from[i])
                                      : from[i];
      out[i] = st->rq.apply(v, events);
    }
    sat[st->layer] += events * st->mult;
  }
}

// Store n values as slab row r, channels [s.channel + c0, + n), and append
// the int16 ones' nonzero channels to the row's list.
void store_scalar(std::byte* block, const Sink& s, std::size_t r,
                  std::size_t c0, const std::int64_t* v, std::size_t n) {
  const std::size_t at = r * s.stride + s.channel + c0;
  if (!s.i16) {
    std::copy(v, v + n, reinterpret_cast<std::int64_t*>(block + s.values) + at);
    return;
  }
  std::int16_t* dst = reinterpret_cast<std::int16_t*>(block + s.values) + at;
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::int16_t>(v[i]);
  if (!s.lists) return;
  std::uint16_t* nnz = reinterpret_cast<std::uint16_t*>(block + s.nnz) + r;
  std::uint16_t* list =
      reinterpret_cast<std::uint16_t*>(block + s.nz) + r * s.stride;
  // Branch-free compaction: every index is written, and the count only
  // advances past the nonzero ones. A row never lists more than `stride`
  // channels, so the slot written is always inside the row's list.
  std::size_t k = s.reset && c0 == 0 ? 0 : *nnz;
  for (std::size_t i = 0; i < n; ++i) {
    list[k] = static_cast<std::uint16_t>(s.channel + c0 + i);
    k += static_cast<std::size_t>(dst[i] != 0);
  }
  *nnz = static_cast<std::uint16_t>(k);
}

template <typename T>
void write_out_scalar_body(const Rows<T>& src, const Epilogue& ep,
                           std::byte* block, std::size_t* sat,
                           std::size_t* ovf) {
  std::int64_t v[kWriteOutChunk];
  std::int64_t w[kWriteOutChunk];
  const Stage* stages = ep.stages.data();
  for (std::size_t p = 0; p < src.positions; ++p) {
    const T* row = src.data + p * src.pool * src.stride;
    for (std::size_t c0 = 0; c0 < src.ch; c0 += kWriteOutChunk) {
      const std::size_t n = std::min(kWriteOutChunk, src.ch - c0);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t x = row[c0 + i];
        for (std::size_t d = 1; d < src.pool; ++d) {
          x = std::max<std::int64_t>(x, row[d * src.stride + c0 + i]);
        }
        v[i] = src.accum ? src.accum->finalize(x, ovf[ep.layer], sat[ep.layer])
                         : x;
      }
      run_stages(v, v, n, stages, stages + ep.common, sat);
      for (const Sink& s : ep.sinks) {
        const std::int64_t* out = v;
        if (s.stage_end > s.stage_begin) {
          run_stages(v, w, n, stages + s.stage_begin, stages + s.stage_end,
                     sat);
          out = w;
        }
        for (std::size_t d = 0; d < s.rep; ++d) {
          store_scalar(block, s, p * s.rep + d, c0, out, n);
        }
      }
    }
  }
}

void write_out_scalar(const Rows<std::int16_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_scalar_body(src, ep, block, sat, ovf);
}
void write_out_scalar(const Rows<std::int32_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_scalar_body(src, ep, block, sat, ovf);
}
void write_out_scalar(const Rows<std::int64_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_scalar_body(src, ep, block, sat, ovf);
}

#if defined(READS_QKERNELS_AVX512)
void conv1d_acc_avx512(const std::int64_t* x, const std::int64_t* wtr,
                       const std::int64_t* bias_acc, std::int64_t* acc,
                       std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k, int shift);
void conv1d_acc_i16_avx512(const std::int16_t* x, const std::uint16_t* nz,
                           const std::uint16_t* nnz, const std::int16_t* wtr,
                           const std::int32_t* bias_acc, std::int32_t* acc,
                           std::size_t positions, std::size_t in_ch,
                           std::size_t out_ch, std::size_t out_pad,
                           std::size_t k, int shift);
void write_out_avx512(const Rows<std::int16_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out_avx512(const Rows<std::int32_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
void write_out_avx512(const Rows<std::int64_t>& src, const Epilogue& ep,
                      std::byte* block, std::size_t* sat, std::size_t* ovf);
#endif

using KernelFn = void (*)(const std::int64_t*, const std::int64_t*,
                          const std::int64_t*, std::int64_t*, std::size_t,
                          std::size_t, std::size_t, std::size_t, int);
using NarrowFn = void (*)(const std::int16_t*, const std::uint16_t*,
                          const std::uint16_t*, const std::int16_t*,
                          const std::int32_t*, std::int32_t*, std::size_t,
                          std::size_t, std::size_t, std::size_t, std::size_t,
                          int);
template <typename T>
using WriteOutFn = void (*)(const Rows<T>&, const Epilogue&, std::byte*,
                            std::size_t*, std::size_t*);

struct Dispatch {
  KernelFn fn = conv1d_acc_scalar;
  const char* name = "scalar";
  NarrowFn narrow = conv1d_acc_i16_scalar;
  const char* narrow_name = "scalar";
  WriteOutFn<std::int16_t> write16 = write_out_scalar_body<std::int16_t>;
  WriteOutFn<std::int32_t> write32 = write_out_scalar_body<std::int32_t>;
  WriteOutFn<std::int64_t> write64 = write_out_scalar_body<std::int64_t>;
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
    d.write16 = write_out_avx512;
    d.write32 = write_out_avx512;
    d.write64 = write_out_avx512;
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

void conv1d_acc_i16(const std::int16_t* x, const std::uint16_t* nz,
                    const std::uint16_t* nnz, const std::int16_t* wtr,
                    const std::int32_t* bias_acc, std::int32_t* acc,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t out_pad, std::size_t k,
                    int shift) {
  detail::dispatch().narrow(x, nz, nnz, wtr, bias_acc, acc, positions, in_ch,
                            out_ch, out_pad, k, shift);
}

namespace {

template <typename T>
bool vectorizable(const Rows<T>& src, const Epilogue& ep) {
  if (!ep.narrow || src.ch == 0 || src.ch > detail::kVectorRow ||
      ep.common > detail::kVectorStages ||
      ep.sinks.size() > detail::kVectorSinks) {
    return false;
  }
  for (const Sink& s : ep.sinks) {
    if (!s.i16 || s.stage_end - s.stage_begin > detail::kVectorStages) {
      return false;
    }
  }
  return true;
}

template <typename T>
void write_out_t(const Rows<T>& src, const Epilogue& ep, std::byte* block,
                 std::size_t* sat, std::size_t* ovf,
                 detail::WriteOutFn<T> vector_body) {
  if (vectorizable(src, ep)) {
    vector_body(src, ep, block, sat, ovf);
  } else {
    detail::write_out_scalar_body(src, ep, block, sat, ovf);
  }
}

}  // namespace

void write_out(const Rows<std::int16_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_t(src, ep, block, sat, ovf, detail::dispatch().write16);
}
void write_out(const Rows<std::int32_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_t(src, ep, block, sat, ovf, detail::dispatch().write32);
}
void write_out(const Rows<std::int64_t>& src, const Epilogue& ep,
               std::byte* block, std::size_t* sat, std::size_t* ovf) {
  write_out_t(src, ep, block, sat, ovf, detail::dispatch().write64);
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
