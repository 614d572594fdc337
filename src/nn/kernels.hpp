// Blocked inner kernels for the float Dense/Conv1D forward passes.
//
// Both kernels reproduce the seed loop nests' accumulation order *exactly*
// per output value (Dense: bias, then inputs ascending; Conv1D: bias, then
// one sub-sum per kernel tap, each summed over channels ascending), so the
// float outputs are bit-identical to the original implementation — only the
// schedule changes:
//
//  * small position counts (the MLP's positions == 1) use 4-wide output
//    register blocking, breaking the loop-carried add dependence so four
//    dot products retire in parallel;
//  * large position counts (the U-Net's 260..65-position convolutions)
//    transpose the weights into a (k, in, out) block on the per-thread
//    scratch arena once per call, making the innermost loop a contiguous,
//    independent-lane sweep over outputs. Conv1D picks its tap loop at run
//    time: on AVX-512 hosts each tap's sums for up to 64 outputs and 4
//    positions stay in registers across the input sweep
//    (kernels_avx512.cpp); elsewhere the portable loop runs.
//
// Every multiply and add is rounded separately, as in the seed: both
// kernel files build with -ffp-contract=off, so no compiler may fuse a
// multiply-add into an FMA (which rounds once and changes the bits) on a
// target that has one.
#pragma once

#include <cstddef>

namespace reads::nn::kernels {

/// y(positions, out) = x(positions, in) * w(out, in)^T + b.
void dense_forward(const float* x, const float* w, const float* b, float* y,
                   std::size_t positions, std::size_t in, std::size_t out);

/// 'same'-padded stride-1 Conv1D: w is (out, k, in), y is (positions, out).
void conv1d_forward(const float* x, const float* w, const float* b, float* y,
                    std::size_t positions, std::size_t in_ch,
                    std::size_t out_ch, std::size_t k);

/// Name of the Conv1D tap loop selected at run time ("avx512"/"scalar").
const char* float_variant() noexcept;

namespace detail {
/// conv1d_forward on the portable tap loop whatever the host supports, so
/// tests on AVX-512 hosts still check the path every other host runs.
void conv1d_forward_scalar(const float* x, const float* w, const float* b,
                           float* y, std::size_t positions, std::size_t in_ch,
                           std::size_t out_ch, std::size_t k);
}  // namespace detail

}  // namespace reads::nn::kernels
