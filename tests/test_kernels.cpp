// Property and regression tests for the quantized kernel engine's
// fixed-point arithmetic (hls/accum.hpp), the SIMD requant/finalize
// write-out kernels (hls/qkernels.hpp), and the narrow-lane range prover
// (hls/lanes.hpp).
//
// The arithmetic tests are phrased against *independent* wide references:
// Requant is checked against a 128-bit shift-then-clamp (the semantics the
// pre-bugfix code wanted but could not express without signed-overflow UB),
// and Accum against a wrap-after-every-add ring accumulator (the HLS
// AC_WRAP register the wrap-once-at-finalize optimization must be
// congruent to). The SIMD kernels are checked lane-for-lane against the
// scalar apply/finalize, including the event counts that feed ForwardStats,
// and the narrow MAC kernels against a naive int64 convolution.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "hls/accum.hpp"
#include "hls/firmware.hpp"
#include "hls/lanes.hpp"
#include "hls/precision.hpp"
#include "hls/profiler.hpp"
#include "hls/qkernels.hpp"
#include "hls/qmodel.hpp"
#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "util/allocguard.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using hls::detail::Accum;
using hls::detail::Requant;
using tensor::Tensor;

// 128-bit reference requant: shift (or widen) exactly, then clamp. This is
// the mathematical spec Requant::apply implements with int64-only
// arithmetic; __int128 makes the widening overflow-free for |shift| <= 63.
std::int64_t requant_ref(std::int64_t v, const Requant& rq,
                         std::size_t& saturations) {
  __int128 x = v;
  if (rq.shift > 0) {
    const __int128 half = __int128{1} << (rq.shift - 1);
    x = x >= 0 ? (x + half) >> rq.shift : -((-x + half) >> rq.shift);
  } else if (rq.shift < 0) {
    x <<= -rq.shift;  // exact in 128 bits for k <= 63
  }
  if (x < rq.lo) {
    ++saturations;
    return rq.lo;
  }
  if (x > rq.hi) {
    ++saturations;
    return rq.hi;
  }
  return static_cast<std::int64_t>(x);
}

// Build a Requant straddling interesting shift values: shift is
// from_frac - (width - int_bits), so sweeping from_frac sweeps the shift
// through wide negative (widening) and positive (narrowing) bands.
Requant make_requant(int from_frac, int width, int int_bits) {
  return Requant(from_frac, hls::FixedSpec{width, int_bits});
}

std::vector<std::int64_t> interesting_values(const Requant& rq,
                                             util::Xoshiro256& rng) {
  std::vector<std::int64_t> vals = {
      0,  1,  -1, 2,  -2, rq.lo, rq.hi, rq.lo + 1, rq.hi - 1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max() - 1,
      std::numeric_limits<std::int64_t>::min() + 1,
  };
  if (rq.shift < 0 && rq.shift > -63) {
    // Straddle the pre-shift saturation thresholds the widening fix
    // introduced — an off-by-one there either misses a saturation or
    // saturates an in-range value.
    const int k = -rq.shift;
    const std::int64_t hi_thr = rq.hi >> k;
    const std::int64_t lo_thr = (rq.lo >> k) + ((rq.lo >> k) * (std::int64_t{1} << k) == rq.lo ? 0 : 1);
    for (std::int64_t d : {-2, -1, 0, 1, 2}) {
      vals.push_back(hi_thr + d);
      vals.push_back(lo_thr + d);
    }
  }
  for (int i = 0; i < 40; ++i) {
    const auto u = rng();
    vals.push_back(static_cast<std::int64_t>(u));
    vals.push_back(static_cast<std::int64_t>(u >> (1 + i % 48)));
  }
  return vals;
}

TEST(RequantProperty, GridMatches128BitReference) {
  util::Xoshiro256 rng(1234);
  for (int width : {4, 8, 12, 16, 24, 32, 48, 63, 64, 70}) {
    for (int int_bits : {0, 1, width / 2, width - 1}) {
      for (int from_frac : {-10, 0, 3, 8, 16, 31, 40, 60, width + 20}) {
        const Requant rq = make_requant(from_frac, width, int_bits);
        if (rq.shift <= -63) continue;  // degenerate band, pinned below
        for (std::int64_t v : interesting_values(rq, rng)) {
          if (rq.shift < 0) {
            // Keep the 128-bit reference shift exact.
            ASSERT_LT(-rq.shift, 64);
          }
          std::size_t sat_fast = 0;
          std::size_t sat_ref = 0;
          const auto fast = rq.apply(v, sat_fast);
          const auto ref = requant_ref(v, rq, sat_ref);
          ASSERT_EQ(fast, ref) << "v=" << v << " shift=" << rq.shift
                               << " <" << width << "," << int_bits << ">";
          ASSERT_EQ(sat_fast, sat_ref) << "v=" << v << " shift=" << rq.shift;
        }
      }
    }
  }
}

TEST(RequantProperty, DegenerateWideningBandSaturatesEveryNonzero) {
  // shift <= -63: any nonzero input overshoots int64 after the widening
  // shift. The old code's `v << k` was UB here; the fix routes by sign.
  for (int from_frac : {-63, -80, -200}) {
    const Requant rq = make_requant(from_frac, 16, 7);
    ASSERT_LE(rq.shift, -63);
    std::size_t sat = 0;
    EXPECT_EQ(rq.apply(0, sat), 0);
    EXPECT_EQ(sat, 0u);
    EXPECT_EQ(rq.apply(1, sat), rq.hi);
    EXPECT_EQ(rq.apply(std::numeric_limits<std::int64_t>::max(), sat), rq.hi);
    EXPECT_EQ(rq.apply(-1, sat), rq.lo);
    EXPECT_EQ(rq.apply(std::numeric_limits<std::int64_t>::min(), sat), rq.lo);
    EXPECT_EQ(sat, 4u);
  }
}

TEST(RequantProperty, WideningExtremesDoNotOverflow) {
  // Satellite regression: the widening path used to compute `v << k` on
  // int64 directly — UB for any |v| > 2^(63-k). These inputs must saturate
  // cleanly with exactly one counted event each.
  const Requant rq = make_requant(2, 16, 10);  // shift = 2 - 6 = -4
  ASSERT_EQ(rq.shift, -4);
  std::size_t sat = 0;
  EXPECT_EQ(rq.apply(std::numeric_limits<std::int64_t>::max(), sat), rq.hi);
  EXPECT_EQ(rq.apply(std::numeric_limits<std::int64_t>::min(), sat), rq.lo);
  EXPECT_EQ(sat, 2u);
  // In-range values still widen exactly.
  std::size_t sat2 = 0;
  EXPECT_EQ(rq.apply(5, sat2), 5 * 16);
  EXPECT_EQ(rq.apply(-3, sat2), -3 * 16);
  EXPECT_EQ(sat2, 0u);
}

// Ring wrap of one value into the accumulator register, exactly as
// Accum::finalize does it — reused to build the wrap-per-add reference.
std::int64_t ring_wrap(std::int64_t v, const Accum& ac) {
  if (v >= ac.ring_lo && v <= ac.ring_hi) return v;
  auto u = static_cast<std::uint64_t>(v) & ac.mask;
  if (ac.ring_bits < 64 && (u & (std::uint64_t{1} << (ac.ring_bits - 1)))) {
    u |= ~ac.mask;
  }
  return static_cast<std::int64_t>(u);
}

TEST(AccumProperty, WrapOnceMatchesWrapAfterEveryAdd) {
  // The fast kernels accumulate exactly in int64 and wrap once at
  // finalize; the HLS register wraps after every add. Modular arithmetic
  // makes the two congruent, and the requant of the wrapped value (and its
  // saturation count) must therefore be identical.
  util::Xoshiro256 rng(99);
  for (int width : {6, 10, 16, 18}) {
    for (int int_bits : {1, 3, width / 2, width - 1}) {
      for (int guard : {0, 2, 8}) {
        const hls::FixedSpec act{width, int_bits};
        const int act_frac = width - int_bits;
        const int product_frac = 2 * act_frac;
        const Accum ac(act, product_frac, act_frac, guard);
        for (int trial = 0; trial < 25; ++trial) {
          const std::size_t terms = 1 + rng.uniform_int(40);
          // Aligned term magnitudes around the ring size so wraps happen.
          const std::int64_t span =
              ac.ring_bits >= 62 ? (std::int64_t{1} << 40)
                                 : (std::int64_t{1} << ac.ring_bits);
          std::int64_t exact = 0;
          std::int64_t per_add = 0;
          for (std::size_t t = 0; t < terms; ++t) {
            const std::int64_t term =
                static_cast<std::int64_t>(rng() % (2 * static_cast<std::uint64_t>(span))) -
                span;
            exact += term;
            per_add = ring_wrap(per_add + term, ac);
          }
          std::size_t ovf = 0;
          std::size_t sat_once = 0;
          std::size_t sat_per_add = 0;
          const auto once = ac.finalize(exact, ovf, sat_once);
          const auto ref = ac.out.apply(per_add, sat_per_add);
          ASSERT_EQ(once, ref)
              << "<" << width << "," << int_bits << "> guard=" << guard;
          ASSERT_EQ(sat_once, sat_per_add);
          // finalize counts one overflow iff the exact sum left the ring.
          ASSERT_EQ(ovf, (exact < ac.ring_lo || exact > ac.ring_hi) ? 1u : 0u);
        }
      }
    }
  }
}

TEST(AccumProperty, RingBits64PlusNeverWrapsAndHasNoUB) {
  // Satellite regression: ring_bits >= 64 used to shift int64_t{1} by 63+
  // (UB). Such a ring covers the whole accumulator, so finalize must never
  // count an overflow, for any input.
  for (const hls::FixedSpec act : {hls::FixedSpec{70, 40}, hls::FixedSpec{64, 32},
                                   hls::FixedSpec{80, 16}}) {
    const Accum ac(act, /*product_frac=*/60, /*stored_bias_frac=*/30,
                   /*guard_bits=*/8);
    ASSERT_GE(ac.ring_bits, 64);
    EXPECT_EQ(ac.ring_hi, std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(ac.ring_lo, std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(ac.mask, ~std::uint64_t{0});
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
      std::size_t ovf = 0;
      std::size_t sat = 0;
      (void)ac.finalize(v, ovf, sat);
      EXPECT_EQ(ovf, 0u) << v;
    }
  }
}

// ------------------------------------------------- SIMD vs scalar kernels

TEST(KernelEquivalence, RequantI64MatchesScalarApply) {
  // The vectorized write-out (8 int64 lanes, mask-popcount saturation
  // counting) must match a plain rq.apply loop — values AND counts — for
  // narrowing, identity, and widening shifts, with and without ReLU, at
  // every n % 8 (the masked tail). Words past n are sentinels the kernel
  // must not touch.
  util::Xoshiro256 rng(7);
  constexpr std::size_t kGuard = 8;
  constexpr std::int64_t kSentinel = -77;
  for (int from_frac : {20, 9, 6, 2, -5}) {  // shift = from_frac - 9
    const Requant rq = make_requant(from_frac, 16, 7);
    for (bool relu : {false, true}) {
      for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                            12u, 13u, 14u, 15u, 16u, 1021u}) {
        std::vector<std::int64_t> in(n + kGuard);
        for (auto& v : in) {
          // Mix magnitudes so some saturate, some don't, signs vary; the
          // words past n would saturate if they were counted.
          const auto u = rng();
          v = static_cast<std::int64_t>(u) >> (u % 48);
        }
        std::vector<std::int64_t> out(n + kGuard, kSentinel);
        std::size_t sat_kernel = 0;
        hls::kernels::requant_i64(in.data(), out.data(), n, rq, relu,
                                  sat_kernel);
        std::size_t sat_scalar = 0;
        for (std::size_t i = 0; i < n; ++i) {
          std::int64_t v = in[i];
          if (relu && v < 0) v = 0;
          const auto want = rq.apply(v, sat_scalar);
          ASSERT_EQ(out[i], want) << "i=" << i << " n=" << n
                                  << " shift=" << rq.shift << " relu=" << relu;
        }
        for (std::size_t i = n; i < n + kGuard; ++i) {
          ASSERT_EQ(out[i], kSentinel) << "wrote past n=" << n << " at " << i;
        }
        EXPECT_EQ(sat_kernel, sat_scalar)
            << "n=" << n << " shift=" << rq.shift << " relu=" << relu;
      }
    }
  }
}

TEST(KernelEquivalence, FinalizeI32MatchesScalarFinalize) {
  // finalize_i32 turns a narrow int32 accumulator block into activations
  // with wrap + requant; overflow and saturation totals must equal the
  // scalar Accum::finalize element loop, including widening out-shifts.
  // out_ch sweeps every tail length 0-7 and the deployed widths; the pad
  // lanes of each out_pad-stride row hold random garbage, so a tail that
  // counts a pad lane moves the totals, and words past the output are
  // sentinels, so a tail that stores one fails.
  util::Xoshiro256 rng(11);
  struct Case {
    hls::FixedSpec act;
    int product_frac;
    int guard;
  };
  constexpr std::size_t kGuard = 8;
  constexpr std::int64_t kSentinel = -9;
  for (const auto& c : {Case{{16, 7}, 18, 2}, Case{{16, 3}, 26, 8},
                        Case{{12, 10}, 4, 0}, Case{{16, 14}, 2, 6}}) {
    const Accum ac(c.act, c.product_frac, c.product_frac, c.guard);
    for (std::size_t out_ch : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                               12u, 13u, 14u, 15u, 16u, 17u, 31u, 46u,
                               140u}) {
      const std::size_t positions = 9;
      const std::size_t stride = hls::kernels::narrow_out_pad(out_ch);
      std::vector<std::int32_t> acc(positions * stride);
      for (auto& v : acc) {
        v = static_cast<std::int32_t>(rng());
        v >>= rng() % 24;
      }
      std::vector<std::int64_t> fast(positions * out_ch + kGuard, kSentinel);
      std::size_t ovf_fast = 0;
      std::size_t sat_fast = 0;
      hls::kernels::finalize_i32(acc.data(), fast.data(), positions, out_ch,
                                 stride, ac, ovf_fast, sat_fast);
      std::size_t ovf_ref = 0;
      std::size_t sat_ref = 0;
      for (std::size_t p = 0; p < positions; ++p) {
        for (std::size_t o = 0; o < out_ch; ++o) {
          const auto want =
              ac.finalize(acc[p * stride + o], ovf_ref, sat_ref);
          ASSERT_EQ(fast[p * out_ch + o], want)
              << "out_ch=" << out_ch << " p=" << p << " o=" << o;
        }
      }
      for (std::size_t i = positions * out_ch; i < fast.size(); ++i) {
        ASSERT_EQ(fast[i], kSentinel) << "out_ch=" << out_ch << " i=" << i;
      }
      EXPECT_EQ(ovf_fast, ovf_ref) << "out_ch=" << out_ch;
      EXPECT_EQ(sat_fast, sat_ref) << "out_ch=" << out_ch;
    }
  }
}

// Naive int64 'same' convolution: the exact sum the narrow kernels must
// reproduce, with w in (k, in, out) layout and x in (positions, in) rows.
std::vector<std::int64_t> conv_ref(const std::vector<std::int64_t>& x,
                                   const std::vector<std::int64_t>& w,
                                   const std::vector<std::int32_t>& bias,
                                   std::size_t positions, std::size_t in_ch,
                                   std::size_t out_ch, std::size_t k,
                                   int shift) {
  std::vector<std::int64_t> y(positions * out_ch);
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  for (std::size_t p = 0; p < positions; ++p) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      std::int64_t want = bias[o];
      for (std::size_t dk = 0; dk < k; ++dk) {
        const std::ptrdiff_t q = static_cast<std::ptrdiff_t>(p + dk) - pad;
        if (q < 0 || q >= static_cast<std::ptrdiff_t>(positions)) continue;
        for (std::size_t i = 0; i < in_ch; ++i) {
          want += (w[(dk * in_ch + i) * out_ch + o] *
                   x[static_cast<std::size_t>(q) * in_ch + i]) >>
                  shift;
        }
      }
      y[p * out_ch + o] = want;
    }
  }
  return y;
}

// (k, in, out) int64 weights -> the kNarrow32 plan layout, through the
// kernels' own layout function (which takes the firmware's (out, k, in)).
std::vector<std::int16_t> narrow_weights(const std::vector<std::int64_t>& w,
                                         std::size_t in_ch, std::size_t out_ch,
                                         std::size_t k) {
  std::vector<std::int64_t> oki(w.size());
  for (std::size_t r = 0; r < k * in_ch; ++r) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      oki[o * k * in_ch + r] = w[r * out_ch + o];
    }
  }
  return hls::kernels::narrow_weights(oki.data(), out_ch, k, in_ch);
}

// Shapes of a test activation row: random with some zeros, or one of the
// edge cases the nonzero lists must handle.
enum class Row { kRandom, kAllZero, kFirstOnly, kLastOnly };

// One (positions, in_ch) activation block; `value` draws a nonzero word.
// With `edge_rows` the row shapes cycle through the positions from a random
// offset, so each edge case lands at the sequence ends and in the middle.
template <typename Value>
std::vector<std::int64_t> activations(std::size_t positions, std::size_t in_ch,
                                      double zero_frac, bool edge_rows,
                                      util::Xoshiro256& rng, Value&& value) {
  static constexpr Row kCycle[] = {Row::kAllZero, Row::kFirstOnly,
                                   Row::kRandom, Row::kLastOnly};
  std::vector<std::int64_t> x(positions * in_ch, 0);
  const std::size_t offset = rng.uniform_int(4);
  for (std::size_t p = 0; p < positions; ++p) {
    std::int64_t* row = x.data() + p * in_ch;
    switch (edge_rows ? kCycle[(p + offset) % 4] : Row::kRandom) {
      case Row::kRandom:
        for (std::size_t i = 0; i < in_ch; ++i) {
          if (rng.uniform() >= zero_frac) row[i] = value();
        }
        break;
      case Row::kAllZero:
        break;
      case Row::kFirstOnly:
        row[0] = value();
        break;
      case Row::kLastOnly:
        row[in_ch - 1] = value();
        break;
    }
  }
  return x;
}

// Output widths with and without a trailing 16-output block, in one
// kernel pass and in several (the deployed 2/31/46/140 among them).
constexpr std::size_t kOutChannels[] = {2,  16,  31,  32, 46,
                                        48, 140, 144, 160};

TEST(KernelEquivalence, NarrowConvMatchesInt64OnSparsityGrid) {
  // pack_i16 + the dispatched narrow kernels against a naive int64 'same'
  // convolution, across input sparsity (the nonzero lists are the only
  // thing deciding which terms are summed), all-zero rows and rows whose
  // only nonzero is the first or last channel, positions 1-7 (below k and
  // every positions % 3, which the input-stationary k == 3 pass unrolls
  // by), k in {1, 3, 5}, odd channel counts on the pair lane, and output
  // widths with and without a trailing 16-block, in one pass and several.
  // Magnitudes stay at |w|, |x| <= 1024 so every partial sum fits int32,
  // which is the range prover's precondition for these lanes.
  util::Xoshiro256 rng(23);
  const auto draw = [&rng] {
    const auto v = static_cast<std::int64_t>(rng() % 2048) - 1024;
    return v == 0 ? std::int64_t{1} : v;
  };
  for (std::size_t in_ch : {1u, 31u, 77u, 186u}) {
    for (std::size_t out_ch : kOutChannels) {
      for (std::size_t k : {1u, 3u, 5u}) {
        const std::size_t out_pad = hls::kernels::narrow_out_pad(out_ch);
        std::vector<std::int64_t> w(k * in_ch * out_ch);  // (k, in, out)
        for (auto& v : w) v = draw();
        std::vector<std::int32_t> bias(out_pad, 0);
        for (std::size_t o = 0; o < out_ch; ++o) {
          bias[o] = static_cast<std::int32_t>(draw());
        }
        const auto wtr_n = narrow_weights(w, in_ch, out_ch, k);
        // The dot-product lane's pair-interleaved (k, in_pairs, out_pad, 2).
        const std::size_t dp_stride = 2 * ((in_ch + 1) / 2);
        const std::size_t dp_pairs = dp_stride / 2;
        std::vector<std::int16_t> wtr_dp(k * dp_pairs * out_pad * 2, 0);
        for (std::size_t dk = 0; dk < k; ++dk) {
          for (std::size_t i = 0; i < in_ch; ++i) {
            for (std::size_t o = 0; o < out_ch; ++o) {
              wtr_dp[((dk * dp_pairs + i / 2) * out_pad + o) * 2 + i % 2] =
                  static_cast<std::int16_t>(w[(dk * in_ch + i) * out_ch + o]);
            }
          }
        }
        for (std::size_t positions = 1; positions <= 7; ++positions) {
          for (double zero_frac : {0.0, 0.5, 0.9, 1.0}) {
            for (bool edge_rows : {false, true}) {
              const auto x = activations(positions, in_ch, zero_frac,
                                         edge_rows, rng, draw);
              for (int shift : {0, 3}) {
                const auto want =
                    conv_ref(x, w, bias, positions, in_ch, out_ch, k, shift);
                for (bool pairs : {false, true}) {
                  if (pairs && shift != 0) continue;  // dp lane is shift 0
                  const std::size_t in_stride = pairs ? dp_stride : in_ch;
                  const std::size_t slots =
                      hls::kernels::nz_stride(in_stride, pairs);
                  std::vector<std::int16_t> x16(positions * in_stride, -1);
                  std::vector<std::uint16_t> nz(positions * slots);
                  std::vector<std::uint16_t> nnz(positions);
                  hls::kernels::pack_i16(x.data(), positions, in_ch,
                                         in_stride, pairs, x16.data(),
                                         nz.data(), nnz.data());
                  std::vector<std::int32_t> acc(positions * out_pad, -7);
                  if (pairs) {
                    hls::kernels::conv1d_acc_i16_dp(
                        x16.data(), nz.data(), nnz.data(), wtr_dp.data(),
                        bias.data(), acc.data(), positions, slots, in_stride,
                        out_ch, out_pad, k);
                  } else {
                    hls::kernels::conv1d_acc_i16(
                        x16.data(), nz.data(), nnz.data(), wtr_n.data(),
                        bias.data(), acc.data(), positions, in_ch, in_stride,
                        out_ch, out_pad, k, shift);
                  }
                  for (std::size_t p = 0; p < positions; ++p) {
                    for (std::size_t o = 0; o < out_ch; ++o) {
                      ASSERT_EQ(acc[p * out_pad + o], want[p * out_ch + o])
                          << "in_ch=" << in_ch << " out_ch=" << out_ch
                          << " k=" << k << " positions=" << positions
                          << " zero_frac=" << zero_frac
                          << " edge_rows=" << edge_rows << " shift=" << shift
                          << " pairs=" << pairs << " p=" << p << " o=" << o;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  // int16 extremes: w, x in {-32768, -1, 1, 32767}, so products reach
  // -32768 * -32768 = 2^30 and the (x, 0) broadcast's sign handling is
  // exercised at both ends. Each output sums at most `budget` terms of
  // magnitude <= 2^30 >> shift (+1 for the floor), plus |bias| <= 1, so
  // every partial sum fits int32 — the prover's precondition. Both the
  // dispatched and the portable kernel must match the int64 sum.
  static constexpr std::int64_t kExtremes[] = {-32768, -1, 1, 32767};
  const auto extreme = [&rng] { return kExtremes[rng.uniform_int(4)]; };
  const std::size_t positions = 7;
  for (int shift : {0, 1, 15, 31}) {
    const std::int64_t term_bound = ((std::int64_t{1} << 30) >> shift) + 1;
    const std::int64_t budget =
        (std::int64_t{std::numeric_limits<std::int32_t>::max()} - 1) /
        term_bound;
    for (const auto& [in_ch, k] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {1, 3}, {3, 1}, {17, 3},
          {77, 1}}) {
      if (static_cast<std::int64_t>(in_ch * k) > budget) continue;
      for (std::size_t out_ch : {2u, 46u, 144u}) {
        for (double zero_frac : {0.0, 0.5}) {
          const std::size_t out_pad = hls::kernels::narrow_out_pad(out_ch);
          std::vector<std::int64_t> w(k * in_ch * out_ch);
          for (auto& v : w) v = extreme();
          std::vector<std::int32_t> bias(out_pad, 0);
          for (std::size_t o = 0; o < out_ch; ++o) {
            bias[o] = static_cast<std::int32_t>(rng.uniform_int(3)) - 1;
          }
          std::vector<std::int64_t> x(positions * in_ch);
          for (auto& v : x) v = rng.uniform() < zero_frac ? 0 : extreme();
          const auto wtr = narrow_weights(w, in_ch, out_ch, k);
          std::vector<std::int16_t> x16(positions * in_ch);
          std::vector<std::uint16_t> nz(positions * in_ch);
          std::vector<std::uint16_t> nnz(positions);
          hls::kernels::pack_i16(x.data(), positions, in_ch, in_ch, false,
                                 x16.data(), nz.data(), nnz.data());
          const auto want =
              conv_ref(x, w, bias, positions, in_ch, out_ch, k, shift);
          for (bool scalar : {false, true}) {
            std::vector<std::int32_t> acc(positions * out_pad, -7);
            const auto fn = scalar ? hls::kernels::detail::conv1d_acc_i16_scalar
                                   : hls::kernels::conv1d_acc_i16;
            fn(x16.data(), nz.data(), nnz.data(), wtr.data(), bias.data(),
               acc.data(), positions, in_ch, in_ch, out_ch, out_pad, k,
               shift);
            for (std::size_t p = 0; p < positions; ++p) {
              for (std::size_t o = 0; o < out_ch; ++o) {
                ASSERT_EQ(acc[p * out_pad + o], want[p * out_ch + o])
                    << "extremes in_ch=" << in_ch << " k=" << k
                    << " out_ch=" << out_ch << " shift=" << shift
                    << " zero_frac=" << zero_frac << " scalar=" << scalar
                    << " p=" << p << " o=" << o;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, ScalarHooksMatchDispatchedPackAndNarrowConv) {
  // The dispatched pack_i16 / conv1d_acc_i16 (AVX-512 here when the host
  // has it) against the portable bodies every other host runs, on channel
  // counts around the 16-lane step, pad columns (in_stride > in_ch),
  // positions 1-7, all-zero rows and rows whose only nonzero is the first
  // or last channel. pack's int16 rows (pad columns included), list
  // lengths and listed indices must agree, and match x; conv's first out_ch
  // accumulators per row must agree, over the same narrow_weights buffer,
  // for k in {1, 3, 5} and output widths with and without a trailing
  // 16-block, in one pass and several.
  util::Xoshiro256 rng(29);
  const auto draw = [&rng] {
    const auto v = static_cast<std::int64_t>(rng.uniform_int(65536)) - 32768;
    return v == 0 ? std::int64_t{-5} : v;
  };
  for (std::size_t in_ch : {1u, 15u, 16u, 17u, 31u, 77u, 186u}) {
    for (std::size_t extra : {0u, 1u, 16u}) {
      const std::size_t in_stride = in_ch + extra;
      for (std::size_t positions = 1; positions <= 7; ++positions) {
        const auto x = activations(positions, in_ch, 0.5, true, rng, draw);
        std::vector<std::int16_t> x16(positions * in_stride, 99);
        std::vector<std::int16_t> x16_s(positions * in_stride, -99);
        std::vector<std::uint16_t> nz(positions * in_stride);
        std::vector<std::uint16_t> nz_s(positions * in_stride);
        std::vector<std::uint16_t> nnz(positions);
        std::vector<std::uint16_t> nnz_s(positions);
        hls::kernels::pack_i16(x.data(), positions, in_ch, in_stride, false,
                               x16.data(), nz.data(), nnz.data());
        hls::kernels::detail::pack_i16_scalar(x.data(), positions, in_ch,
                                              in_stride, false, x16_s.data(),
                                              nz_s.data(), nnz_s.data());
        ASSERT_EQ(x16, x16_s) << "in_ch=" << in_ch
                              << " in_stride=" << in_stride;
        ASSERT_EQ(nnz, nnz_s) << "in_ch=" << in_ch
                              << " in_stride=" << in_stride;
        // Absolute output too, so a bug both bodies share still fails: each
        // row is x narrowed with zero pad columns, and its list holds
        // exactly the nonzero channels in ascending order.
        for (std::size_t p = 0; p < positions; ++p) {
          std::vector<std::uint16_t> want_nz;
          for (std::size_t i = 0; i < in_stride; ++i) {
            const std::int64_t v = i < in_ch ? x[p * in_ch + i] : 0;
            ASSERT_EQ(x16[p * in_stride + i], static_cast<std::int16_t>(v))
                << "in_ch=" << in_ch << " in_stride=" << in_stride
                << " p=" << p << " i=" << i;
            if (v != 0) want_nz.push_back(static_cast<std::uint16_t>(i));
          }
          ASSERT_EQ(nnz[p], want_nz.size())
              << "in_ch=" << in_ch << " in_stride=" << in_stride << " p=" << p;
          for (std::size_t j = 0; j < nnz[p]; ++j) {
            ASSERT_EQ(nz[p * in_stride + j], want_nz[j])
                << "in_ch=" << in_ch << " p=" << p << " j=" << j;
            ASSERT_EQ(nz_s[p * in_stride + j], want_nz[j])
                << "in_ch=" << in_ch << " p=" << p << " j=" << j;
          }
        }

        // |w| <= 64 and |x| <= 2^15, so a term is at most 2^21 >> 9 = 2^12
        // and 5 * 186 of them stay far inside int32.
        for (std::size_t out_ch : kOutChannels) {
          for (std::size_t k : {1u, 3u, 5u}) {
            const int shift = 9;
            const std::size_t out_pad = hls::kernels::narrow_out_pad(out_ch);
            std::vector<std::int64_t> w(k * in_ch * out_ch);
            for (auto& v : w) {
              v = static_cast<std::int64_t>(rng.uniform_int(129)) - 64;
            }
            const auto wtr = narrow_weights(w, in_ch, out_ch, k);
            std::vector<std::int32_t> bias(out_pad, 0);
            for (std::size_t o = 0; o < out_ch; ++o) {
              bias[o] =
                  static_cast<std::int32_t>(rng.uniform_int(2001)) - 1000;
            }
            std::vector<std::int32_t> acc(positions * out_pad, 5);
            std::vector<std::int32_t> acc_s(positions * out_pad, -5);
            hls::kernels::conv1d_acc_i16(x16.data(), nz.data(), nnz.data(),
                                         wtr.data(), bias.data(), acc.data(),
                                         positions, in_ch, in_stride, out_ch,
                                         out_pad, k, shift);
            hls::kernels::detail::conv1d_acc_i16_scalar(
                x16.data(), nz.data(), nnz.data(), wtr.data(), bias.data(),
                acc_s.data(), positions, in_ch, in_stride, out_ch, out_pad, k,
                shift);
            for (std::size_t p = 0; p < positions; ++p) {
              for (std::size_t o = 0; o < out_ch; ++o) {
                ASSERT_EQ(acc[p * out_pad + o], acc_s[p * out_pad + o])
                    << "in_ch=" << in_ch << " in_stride=" << in_stride
                    << " positions=" << positions << " out_ch=" << out_ch
                    << " k=" << k << " p=" << p << " o=" << o;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, MaxPoolMatchesReferenceWithSaturation) {
  // maxpool_i64 against the reference executor's MaxPool loop (max over
  // `factor` rows, then Requant::apply per element): values AND saturation
  // counts, for narrowing, identity and widening shifts and the degenerate
  // bands the wrapper keeps scalar, on inputs large enough to saturate and
  // channel counts around the 8-lane step.
  util::Xoshiro256 rng(31);
  const std::size_t positions = 5;
  for (int from_frac : {30, 9, 2, -5, -70, 80}) {  // shift = from_frac - 9
    const Requant rq = make_requant(from_frac, 16, 7);
    for (std::size_t factor : {1u, 2u, 3u}) {
      for (std::size_t ch : {1u, 7u, 8u, 9u, 21u}) {
        std::vector<std::int64_t> in(positions * factor * ch);
        for (auto& v : in) {
          const auto u = rng();
          v = static_cast<std::int64_t>(u) >> (u % 60);
        }
        in[0] = std::numeric_limits<std::int64_t>::max();
        in[in.size() - 1] = std::numeric_limits<std::int64_t>::min();
        std::vector<std::int64_t> out(positions * ch, -77);
        std::size_t sat = 0;
        hls::kernels::maxpool_i64(in.data(), out.data(), positions, ch, factor,
                                  rq, sat);
        std::size_t sat_ref = 0;
        for (std::size_t p = 0; p < positions; ++p) {
          for (std::size_t c = 0; c < ch; ++c) {
            std::int64_t m = in[(p * factor) * ch + c];
            for (std::size_t d = 1; d < factor; ++d) {
              m = std::max(m, in[(p * factor + d) * ch + c]);
            }
            ASSERT_EQ(out[p * ch + c], rq.apply(m, sat_ref))
                << "shift=" << rq.shift << " factor=" << factor
                << " ch=" << ch << " p=" << p << " c=" << c;
          }
        }
        EXPECT_EQ(sat, sat_ref) << "shift=" << rq.shift << " factor=" << factor
                                << " ch=" << ch;
        if (rq.shift < 0 && rq.shift > -63) {
          EXPECT_GT(sat_ref, 0u) << "widening inputs must saturate";
        }
      }
    }
  }
}

TEST(KernelDispatch, Avx512HostTakesTheAvx512Lanes) {
  // Every bit-identity test passes on the portable kernels too, so a build
  // that silently lost its AVX-512 file (a missing -mavx512bw in the
  // compiler check) or a wrong dispatch condition would go unnoticed
  // without this: on a host reporting avx512f/dq/vl/bw the quantized
  // kernels must report the AVX-512 variants.
#if defined(__GNUC__) && defined(__x86_64__)
  if (!(__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw"))) {
    GTEST_SKIP() << "host lacks avx512f/dq/vl/bw";
  }
  EXPECT_STREQ(hls::kernels::narrow_variant(), "avx512");
  EXPECT_STREQ(hls::kernels::variant(), "avx512");
#else
  GTEST_SKIP() << "not an x86-64 GCC/Clang build";
#endif
}

// ------------------------------------------------------------ lane prover

Tensor random_frame(const std::vector<std::size_t>& shape, std::uint64_t seed,
                    double scale = 1.0) {
  util::Xoshiro256 rng(seed);
  Tensor t(shape);
  for (auto& v : t.flat()) v = static_cast<float>(scale * rng.normal());
  return t;
}

hls::FirmwareModel compiled_unet(std::uint64_t seed, hls::QuantConfig quant) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, seed);
  hls::HlsConfig cfg;
  cfg.quant = std::move(quant);
  return hls::compile(model, cfg);
}

TEST(LaneProver, DeployedStyleUnetProvesNarrowAndStaysBitIdentical) {
  // A 16-bit layer-based U-Net is the deployment the tentpole targets:
  // every Dense/Conv1D layer's proven envelope must fit int32 (narrow
  // lane), the proof bounds must be self-consistent, and the narrow
  // execution must stay bit-identical to the reference executor on frames
  // hot enough to saturate.
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 61);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(random_frame({16, 1}, 50u + static_cast<unsigned>(i)));
  }
  const auto prof = hls::profile_model(model, calib);
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, prof, 16);
  const hls::QuantizedModel qm(hls::compile(model, cfg));

  const auto& report = qm.lanes();
  ASSERT_GT(report.mac_layers, 0u);
  EXPECT_EQ(report.narrow_layers, report.mac_layers)
      << "16-bit layer-based specs must prove narrow on every MAC layer";
  ASSERT_EQ(report.decisions.size(), report.ranges.size());
  for (std::size_t i = 0; i < report.decisions.size(); ++i) {
    const auto& d = report.decisions[i];
    const auto& r = report.ranges[i];
    ASSERT_LE(r.lo, r.hi) << i;
    if (!d.mac_layer) continue;
    ASSERT_LE(d.env_lo, d.env_hi) << i;
    if (d.lane != hls::Lane::kWide64) {
      // The narrow claim itself: every partial sum fits int32.
      EXPECT_GE(d.env_lo, std::numeric_limits<std::int32_t>::min()) << i;
      EXPECT_LE(d.env_hi, std::numeric_limits<std::int32_t>::max()) << i;
    }
    EXPECT_FALSE(d.reason.empty()) << i;
  }

  for (int f = 0; f < 4; ++f) {
    const double scale = f < 2 ? 1.0 : 25.0;
    const auto raw = qm.quantize_input(
        random_frame({16, 1}, 300u + static_cast<unsigned>(f), scale));
    hls::ForwardStats fast_stats;
    hls::ForwardStats ref_stats;
    EXPECT_EQ(qm.forward_raw(raw, &fast_stats),
              qm.forward_raw_reference(raw, &ref_stats))
        << "frame " << f;
    EXPECT_EQ(fast_stats.saturations, ref_stats.saturations) << "frame " << f;
    EXPECT_EQ(fast_stats.overflows, ref_stats.overflows) << "frame " << f;
  }
}

TEST(QuantizedModelAlloc, WarmForwardIntoMakesNoHeapAllocations) {
  // The steady-state frame path serves every scratch buffer — activation
  // slots, the narrow lanes' int16 rows, nonzero lists and accumulators —
  // from the thread's arena, so once warmed a frame allocates nothing.
  if (!util::alloc_counting_active()) {
    GTEST_SKIP() << "allocation counting is compiled out (sanitizer build)";
  }
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 83);
  std::vector<Tensor> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(random_frame({16, 1}, 90u + static_cast<unsigned>(i)));
  }
  hls::HlsConfig cfg;
  cfg.quant =
      hls::layer_based_config(model, hls::profile_model(model, frames), 16);
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  ASSERT_EQ(qm.lanes().narrow_layers, qm.lanes().mac_layers);

  Tensor out;
  hls::ForwardStats stats;
  qm.forward_into(frames[0], out, &stats);  // warm: arena, output, stats
  const auto before = util::alloc_count();
  for (const auto& f : frames) {
    qm.forward_into(f, out, &stats);
    qm.forward_into(f, out);
  }
  EXPECT_EQ(util::alloc_count() - before, 0u);
}

TEST(LaneProver, ChannelsBeyondUint16NonzeroListsStayWide) {
  // The narrow lanes list a row's nonzero inputs with a uint16 length, so
  // a layer with more than 65,535 input channels must stay on the int64
  // path (and stay exact there) while its narrow-sized neighbours go narrow.
  auto model = nn::build_mlp({.inputs = 65536, .hidden = 2, .outputs = 3});
  nn::init_he_uniform(model, 89);
  const hls::QuantizedModel qm(hls::compile(model, hls::HlsConfig{}));
  bool saw_wide = false;
  bool saw_narrow = false;
  for (const auto& d : qm.lanes().decisions) {
    if (!d.mac_layer) continue;
    if (d.lane == hls::Lane::kWide64) {
      saw_wide = true;
      EXPECT_NE(d.reason.find("nonzero lists"), std::string::npos)
          << d.reason;
    } else {
      saw_narrow = true;
    }
  }
  EXPECT_TRUE(saw_wide);
  EXPECT_TRUE(saw_narrow);
  const auto raw = qm.quantize_input(random_frame({1, 65536}, 97));
  hls::ForwardStats fast_stats;
  hls::ForwardStats ref_stats;
  EXPECT_EQ(qm.forward_raw(raw, &fast_stats),
            qm.forward_raw_reference(raw, &ref_stats));
  EXPECT_EQ(fast_stats.saturations, ref_stats.saturations);
  EXPECT_EQ(fast_stats.overflows, ref_stats.overflows);
}

TEST(LaneProver, WideWeightsForceInt64FallbackAndStayExact) {
  // Adversarial config: 18-bit weights don't fit int16, so no layer may be
  // certified narrow — and the wide fallback must still be bit-identical.
  const hls::QuantizedModel qm(
      compiled_unet(67, hls::QuantConfig::uniform({18, 8})));
  EXPECT_EQ(qm.lanes().narrow_layers, 0u);
  for (const auto& d : qm.lanes().decisions) {
    if (d.mac_layer) EXPECT_EQ(d.lane, hls::Lane::kWide64) << d.reason;
  }
  const auto raw =
      qm.quantize_input(random_frame({16, 1}, 71, 10.0));
  hls::ForwardStats fast_stats;
  hls::ForwardStats ref_stats;
  EXPECT_EQ(qm.forward_raw(raw, &fast_stats),
            qm.forward_raw_reference(raw, &ref_stats));
  EXPECT_EQ(fast_stats.saturations, ref_stats.saturations);
  EXPECT_EQ(fast_stats.overflows, ref_stats.overflows);
}

}  // namespace
