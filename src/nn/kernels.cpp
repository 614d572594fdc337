#include "nn/kernels.hpp"

#include <algorithm>

#include "util/arena.hpp"

namespace reads::nn::kernels {

namespace detail {
#if defined(READS_NN_KERNELS_AVX512)
void conv1d_taps_avx512(const float* x, const float* wt, const float* b,
                        float* y, std::size_t positions, std::size_t in_ch,
                        std::size_t out_ch, std::size_t stride, std::size_t k);
#endif
}  // namespace detail

namespace {

// Below this many positions the per-call weight transpose costs more than
// the contiguous inner loop saves (the MLP runs every Dense at 1 position).
constexpr std::size_t kTransposeMinPositions = 8;

void dense_blocked(const float* x, const float* w, const float* b, float* y,
                   std::size_t positions, std::size_t in, std::size_t out) {
  for (std::size_t p = 0; p < positions; ++p) {
    const float* xp = x + p * in;
    float* yp = y + p * out;
    std::size_t o = 0;
    for (; o + 4 <= out; o += 4) {
      const float* w0 = w + (o + 0) * in;
      const float* w1 = w + (o + 1) * in;
      const float* w2 = w + (o + 2) * in;
      const float* w3 = w + (o + 3) * in;
      float a0 = b[o + 0];
      float a1 = b[o + 1];
      float a2 = b[o + 2];
      float a3 = b[o + 3];
      for (std::size_t i = 0; i < in; ++i) {
        const float xv = xp[i];
        a0 += w0[i] * xv;
        a1 += w1[i] * xv;
        a2 += w2[i] * xv;
        a3 += w3[i] * xv;
      }
      yp[o + 0] = a0;
      yp[o + 1] = a1;
      yp[o + 2] = a2;
      yp[o + 3] = a3;
    }
    for (; o < out; ++o) {
      const float* wo = w + o * in;
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wo[i] * xp[i];
      yp[o] = acc;
    }
  }
}

void dense_transposed(const float* x, const float* w, const float* b, float* y,
                      std::size_t positions, std::size_t in, std::size_t out) {
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  arena.require<float>(in * out + out + 4);  // +4 covers word rounding
  auto wt = arena.alloc<float>(in * out);
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t i = 0; i < in; ++i) wt[i * out + o] = w[o * in + i];
  }
  auto acc = arena.alloc<float>(out);
  for (std::size_t p = 0; p < positions; ++p) {
    const float* xp = x + p * in;
    std::copy(b, b + out, acc.data());
    for (std::size_t i = 0; i < in; ++i) {
      const float xv = xp[i];
      const float* wrow = wt.data() + i * out;
      for (std::size_t o = 0; o < out; ++o) acc[o] += wrow[o] * xv;
    }
    std::copy(acc.data(), acc.data() + out, y + p * out);
  }
}

// The seed's per-position tap loop over a transposed weight block of row
// stride `stride`: each tap's sub-sums round-trip through `acc` on every
// input, a contiguous independent-lane sweep the compiler vectorizes
// without reassociating any per-output sum. `acc` comes from the arena
// capacity conv1d_transposed reserved.
void conv1d_taps_scalar(const float* x, const float* wt, const float* b,
                        float* y, std::size_t positions, std::size_t in_ch,
                        std::size_t out_ch, std::size_t stride,
                        std::size_t k) {
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  auto acc = arena.alloc<float>(out_ch);
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    float* yp = y + static_cast<std::size_t>(p) * out_ch;
    std::copy(b, b + out_ch, yp);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const float* xq = x + static_cast<std::size_t>(p + dk - pad) * in_ch;
      const float* wdk = wt + static_cast<std::size_t>(dk) * in_ch * stride;
      // One sub-sum per tap, added to y afterwards — the seed's grouping.
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (std::size_t i = 0; i < in_ch; ++i) {
        const float xv = xq[i];
        const float* wrow = wdk + i * stride;
        for (std::size_t o = 0; o < out_ch; ++o) acc[o] += wrow[o] * xv;
      }
      for (std::size_t o = 0; o < out_ch; ++o) yp[o] += acc[o];
    }
  }
}

using TapsFn = void (*)(const float*, const float*, const float*, float*,
                        std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t);

struct FloatDispatch {
  TapsFn taps = conv1d_taps_scalar;
  const char* name = "scalar";
  std::size_t lanes = 1;  ///< transposed rows are padded to a multiple
};

FloatDispatch resolve() {
  FloatDispatch d;
#if defined(READS_NN_KERNELS_AVX512) && defined(__GNUC__) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    d.taps = detail::conv1d_taps_avx512;
    d.name = "avx512";
    d.lanes = 16;
  }
#endif
  return d;
}

const FloatDispatch& dispatch() {
  static const FloatDispatch d = resolve();
  return d;
}

void conv1d_transposed(const FloatDispatch& d, const float* x,
                       const float* w, const float* b, float* y,
                       std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k) {
  const std::size_t stride = (out_ch + d.lanes - 1) / d.lanes * d.lanes;
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  // +4 covers word rounding; out_ch is the scalar taps' sub-sum row.
  arena.require<float>(k * in_ch * stride + out_ch + 4);
  auto wt = arena.alloc<float>(k * in_ch * stride);
  std::fill(wt.begin(), wt.end(), 0.0f);
  for (std::size_t o = 0; o < out_ch; ++o) {
    for (std::size_t dk = 0; dk < k; ++dk) {
      for (std::size_t i = 0; i < in_ch; ++i) {
        wt[(dk * in_ch + i) * stride + o] = w[(o * k + dk) * in_ch + i];
      }
    }
  }
  d.taps(x, wt.data(), b, y, positions, in_ch, out_ch, stride, k);
}

void conv1d_blocked(const float* x, const float* w, const float* b, float* y,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t k) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    float* yp = y + static_cast<std::size_t>(p) * out_ch;
    std::copy(b, b + out_ch, yp);
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const float* xq = x + static_cast<std::size_t>(p + dk - pad) * in_ch;
      std::size_t o = 0;
      for (; o + 4 <= out_ch; o += 4) {
        const float* w0 = w + ((o + 0) * k + static_cast<std::size_t>(dk)) * in_ch;
        const float* w1 = w + ((o + 1) * k + static_cast<std::size_t>(dk)) * in_ch;
        const float* w2 = w + ((o + 2) * k + static_cast<std::size_t>(dk)) * in_ch;
        const float* w3 = w + ((o + 3) * k + static_cast<std::size_t>(dk)) * in_ch;
        float a0 = 0.0f;
        float a1 = 0.0f;
        float a2 = 0.0f;
        float a3 = 0.0f;
        for (std::size_t i = 0; i < in_ch; ++i) {
          const float xv = xq[i];
          a0 += w0[i] * xv;
          a1 += w1[i] * xv;
          a2 += w2[i] * xv;
          a3 += w3[i] * xv;
        }
        yp[o + 0] += a0;
        yp[o + 1] += a1;
        yp[o + 2] += a2;
        yp[o + 3] += a3;
      }
      for (; o < out_ch; ++o) {
        const float* wk = w + (o * k + static_cast<std::size_t>(dk)) * in_ch;
        float acc = 0.0f;
        for (std::size_t i = 0; i < in_ch; ++i) acc += wk[i] * xq[i];
        yp[o] += acc;
      }
    }
  }
}

}  // namespace

void dense_forward(const float* x, const float* w, const float* b, float* y,
                   std::size_t positions, std::size_t in, std::size_t out) {
  if (positions >= kTransposeMinPositions && out >= 4) {
    dense_transposed(x, w, b, y, positions, in, out);
  } else {
    dense_blocked(x, w, b, y, positions, in, out);
  }
}

void conv1d_forward(const float* x, const float* w, const float* b, float* y,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t k) {
  if (positions >= kTransposeMinPositions && out_ch >= 4) {
    conv1d_transposed(dispatch(), x, w, b, y, positions, in_ch, out_ch, k);
  } else {
    conv1d_blocked(x, w, b, y, positions, in_ch, out_ch, k);
  }
}

void detail::conv1d_forward_scalar(const float* x, const float* w,
                                   const float* b, float* y,
                                   std::size_t positions, std::size_t in_ch,
                                   std::size_t out_ch, std::size_t k) {
  if (positions >= kTransposeMinPositions && out_ch >= 4) {
    conv1d_transposed(FloatDispatch{}, x, w, b, y, positions, in_ch, out_ch,
                      k);
  } else {
    conv1d_blocked(x, w, b, y, positions, in_ch, out_ch, k);
  }
}

const char* float_variant() noexcept { return dispatch().name; }

}  // namespace reads::nn::kernels
