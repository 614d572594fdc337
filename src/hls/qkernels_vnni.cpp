// VNNI dot-product variant of the narrow-lane kernel. Lives in its own
// translation unit because it is compiled with -mavx512vnni (see
// src/hls/CMakeLists.txt): keeping the flag off the other AVX-512 TU stops
// the compiler from auto-emitting VNNI instructions into code paths that
// are reachable on non-VNNI machines. Only ever called after a runtime
// __builtin_cpu_supports("avx512vnni") check in qkernels.cpp.
//
// vpdpwssd fuses two int16 products into one int32 accumulate with no
// intermediate widening, so it is only dispatched for layers the range
// prover certified with shift == 0 and an absolute-sum bound inside int32
// (covering the instruction's internal pair-sum as well as the running
// accumulator). Under that certificate every value involved is exact, so
// the result is bit-identical to the scalar pair loop.
#if defined(READS_QKERNELS_VNNI)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace reads::hls::kernels::detail {

namespace {

template <int NB>
void dp_block_pass(const std::int16_t* x, const std::uint16_t* nz,
                   const std::uint16_t* nnz, const std::int16_t* wtr,
                   const std::int32_t* bias_acc, std::int32_t* acc,
                   std::ptrdiff_t pos, std::size_t in_pairs,
                   std::size_t in_stride, std::size_t out_pad, std::size_t ob,
                   std::ptrdiff_t kk) {
  const auto pad = kk / 2;
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
      const std::uint16_t* list = nz + q * in_pairs;
      const std::size_t count = nnz[q];
      const std::int16_t* wdk =
          wtr + (static_cast<std::size_t>(dk) * in_pairs * out_pad + ob) * 2;
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t ip = list[j];
        // Broadcast the adjacent activation pair as one epi32; the lane
        // order of the two int16 halves matches vpdpwssd's pairing.
        std::int32_t xpair;
        std::memcpy(&xpair, xq + 2 * ip, sizeof(xpair));
        const __m512i xvec = _mm512_set1_epi32(xpair);
        const std::int16_t* wrow = wdk + ip * out_pad * 2;
        for (int b = 0; b < NB; ++b) {
          const __m512i w = _mm512_loadu_si512(wrow + 32 * b);
          accv[b] = _mm512_dpwssd_epi32(accv[b], w, xvec);
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

void conv1d_acc_i16_dp_vnni(const std::int16_t* x, const std::uint16_t* nz,
                            const std::uint16_t* nnz, const std::int16_t* wtr,
                            const std::int32_t* bias_acc, std::int32_t* acc,
                            std::size_t positions, std::size_t in_pairs,
                            std::size_t in_stride, std::size_t /*out_ch*/,
                            std::size_t out_pad, std::size_t k) {
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  std::size_t ob = 0;
  for (; ob + 64 <= out_pad; ob += 64) {
    dp_block_pass<4>(x, nz, nnz, wtr, bias_acc, acc, pos, in_pairs, in_stride,
                     out_pad, ob, kk);
  }
  switch ((out_pad - ob) / 16) {
    case 3:
      dp_block_pass<3>(x, nz, nnz, wtr, bias_acc, acc, pos, in_pairs,
                       in_stride, out_pad, ob, kk);
      break;
    case 2:
      dp_block_pass<2>(x, nz, nnz, wtr, bias_acc, acc, pos, in_pairs,
                       in_stride, out_pad, ob, kk);
      break;
    case 1:
      dp_block_pass<1>(x, nz, nnz, wtr, bias_acc, acc, pos, in_pairs,
                       in_stride, out_pad, ob, kk);
      break;
    default:
      break;
  }
}

}  // namespace reads::hls::kernels::detail

#endif  // READS_QKERNELS_VNNI
