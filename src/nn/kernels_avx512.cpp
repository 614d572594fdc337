// AVX-512 variant of the transposed float Conv1D kernel. This translation
// unit is compiled with -mavx512f -ffp-contract=off (see
// src/nn/CMakeLists.txt) and is only ever called after a runtime
// __builtin_cpu_supports check in kernels.cpp.
//
// Each output lane performs exactly the seed's operations in the seed's
// order: per tap, acc = 0, then acc = acc + (w * x) over ascending inputs
// (vmulps then vaddps, two roundings; -ffp-contract=off keeps the compiler
// from fusing them into an FMA), then y = y + acc. Only the schedule
// differs from the portable loop: a tap's sums for a block of up to 64
// outputs and up to 4 positions stay in registers across the whole input
// sweep instead of round-tripping through memory on every input.
#if defined(READS_NN_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace reads::nn::kernels::detail {

namespace {

constexpr std::size_t kLanes = 16;

// One tap for NP positions (rows xq + r * in_ch -> yp + r * out_ch) and NV
// output vectors starting at the block's first output. `wblk` is the tap's
// transposed weight block at that output, row stride `stride` (a multiple
// of 16; pad lanes hold zero weights). Only the last vector can be partial:
// `tail` masks its live lanes in y.
template <std::size_t NV, std::size_t NP>
void tap_block(const float* xq, const float* wblk, float* yp,
               std::size_t in_ch, std::size_t stride, std::size_t out_ch,
               __mmask16 tail) {
  __m512 acc[NP][NV];
  for (std::size_t r = 0; r < NP; ++r) {
    for (std::size_t j = 0; j < NV; ++j) acc[r][j] = _mm512_setzero_ps();
  }
  for (std::size_t i = 0; i < in_ch; ++i) {
    const float* wrow = wblk + i * stride;
    __m512 w[NV];
    for (std::size_t j = 0; j < NV; ++j) w[j] = _mm512_loadu_ps(wrow + j * kLanes);
    for (std::size_t r = 0; r < NP; ++r) {
      const __m512 xv = _mm512_set1_ps(xq[r * in_ch + i]);
      for (std::size_t j = 0; j < NV; ++j) {
        acc[r][j] = _mm512_add_ps(acc[r][j], _mm512_mul_ps(w[j], xv));
      }
    }
  }
  for (std::size_t r = 0; r < NP; ++r) {
    float* y = yp + r * out_ch;
    for (std::size_t j = 0; j + 1 < NV; ++j) {
      float* yj = y + j * kLanes;
      _mm512_storeu_ps(yj, _mm512_add_ps(_mm512_loadu_ps(yj), acc[r][j]));
    }
    float* yl = y + (NV - 1) * kLanes;
    _mm512_mask_storeu_ps(
        yl, tail,
        _mm512_add_ps(_mm512_maskz_loadu_ps(tail, yl), acc[r][NV - 1]));
  }
}

template <std::size_t NP>
void tap_all_outputs(const float* xq, const float* wdk, float* yp,
                     std::size_t in_ch, std::size_t stride,
                     std::size_t out_ch) {
  constexpr std::size_t kBlock = 4 * kLanes;
  for (std::size_t o = 0; o < out_ch; o += kBlock) {
    const std::size_t n = std::min(kBlock, out_ch - o);
    const std::size_t nv = (n + kLanes - 1) / kLanes;
    const std::size_t last = n - (nv - 1) * kLanes;
    const auto tail = static_cast<__mmask16>((1u << last) - 1u);
    const float* w = wdk + o;
    float* y = yp + o;
    switch (nv) {
      case 4: tap_block<4, NP>(xq, w, y, in_ch, stride, out_ch, tail); break;
      case 3: tap_block<3, NP>(xq, w, y, in_ch, stride, out_ch, tail); break;
      case 2: tap_block<2, NP>(xq, w, y, in_ch, stride, out_ch, tail); break;
      default: tap_block<1, NP>(xq, w, y, in_ch, stride, out_ch, tail); break;
    }
  }
}

}  // namespace

void conv1d_taps_avx512(const float* x, const float* wt, const float* b,
                        float* y, std::size_t positions, std::size_t in_ch,
                        std::size_t out_ch, std::size_t stride,
                        std::size_t k) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  for (std::ptrdiff_t p = 0; p < pos;) {
    const std::ptrdiff_t dk_lo = std::max<std::ptrdiff_t>(0, pad - p);
    const std::ptrdiff_t dk_hi = std::min<std::ptrdiff_t>(kk, pos + pad - p);
    // Up to 4 consecutive positions with the same tap range (all but the
    // padding bands at either end) share every weight-row load.
    std::ptrdiff_t rows = 1;
    while (rows < 4 && dk_lo == 0 && p + rows < pos &&
           std::min<std::ptrdiff_t>(kk, pos + pad - p - rows) == dk_hi) {
      ++rows;
    }
    float* yp = y + static_cast<std::size_t>(p) * out_ch;
    for (std::ptrdiff_t r = 0; r < rows; ++r) {
      std::copy(b, b + out_ch, yp + static_cast<std::size_t>(r) * out_ch);
    }
    for (std::ptrdiff_t dk = dk_lo; dk < dk_hi; ++dk) {
      const float* xq = x + static_cast<std::size_t>(p + dk - pad) * in_ch;
      const float* wdk = wt + static_cast<std::size_t>(dk) * in_ch * stride;
      switch (rows) {
        case 4: tap_all_outputs<4>(xq, wdk, yp, in_ch, stride, out_ch); break;
        case 3: tap_all_outputs<3>(xq, wdk, yp, in_ch, stride, out_ch); break;
        case 2: tap_all_outputs<2>(xq, wdk, yp, in_ch, stride, out_ch); break;
        default: tap_all_outputs<1>(xq, wdk, yp, in_ch, stride, out_ch); break;
      }
    }
    p += rows;
  }
}

}  // namespace reads::nn::kernels::detail

#endif  // READS_NN_KERNELS_AVX512
