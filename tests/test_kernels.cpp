// Property and regression tests for the quantized kernel engine's
// fixed-point arithmetic (hls/accum.hpp), the write-out every producer
// layer ends in and the MAC kernels (hls/qkernels.hpp), and the
// narrow-lane range prover (hls/lanes.hpp).
//
// The arithmetic tests are phrased against *independent* wide references:
// Requant is checked against a 128-bit shift-then-clamp (the semantics the
// pre-bugfix code wanted but could not express without signed-overflow UB),
// and Accum against a wrap-after-every-add ring accumulator (the HLS
// AC_WRAP register the wrap-once-at-finalize optimization must be
// congruent to). The write-out is checked lane-for-lane against the
// scalar apply/finalize, including the event counts that feed ForwardStats,
// and the narrow MAC kernels against a naive int64 convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
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

__extension__ using Int128 = __int128;

// 128-bit reference requant: shift (or widen) exactly, then clamp. This is
// the mathematical spec Requant::apply implements with int64-only
// arithmetic; 128 bits make the widening overflow-free for |shift| <= 63.
std::int64_t requant_ref(std::int64_t v, const Requant& rq,
                         std::size_t& saturations) {
  Int128 x = v;
  if (rq.shift > 0) {
    const Int128 half = Int128{1} << (rq.shift - 1);
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

namespace hk = hls::kernels;

// An activation block for write_out tests, in 8-byte words, every byte
// set to a sentinel pattern so an unwritten or stray word shows.
std::vector<std::int64_t> sentinel_block(std::size_t bytes) {
  return std::vector<std::int64_t>((bytes + 7) / 8,
                                   static_cast<std::int64_t>(0x5A5A5A5A5A5A5A5A));
}

std::byte* bytes_of(std::vector<std::int64_t>& block) {
  return reinterpret_cast<std::byte*>(block.data());
}

// One sink over a whole (rows, stride) slab at byte 0 of the block; int16
// slabs carry lists after the values when `lists` is set.
hk::Sink slab_sink(std::size_t rows, std::size_t stride, bool i16,
                   bool lists) {
  hk::Sink s;
  s.stride = stride;
  s.i16 = i16;
  s.lists = lists;
  s.reset = lists;
  s.nz = (rows * stride * 2 + 63) / 64 * 64;
  s.nnz = s.nz + (rows * stride * 2 + 63) / 64 * 64;
  return s;
}

std::size_t slab_bytes(const hk::Sink& s, std::size_t rows) {
  return s.i16 ? s.nnz + rows * 2 : rows * s.stride * 8;
}

TEST(KernelEquivalence, RequantI64MatchesScalarApply) {
  // A write-out whose one common stage is a requant (with or without
  // ReLU), from int64 values into an int64 slab (the portable int64 body),
  // must match a plain rq.apply loop — values AND counts — for narrowing,
  // identity, and widening shifts, with and without ReLU, at every n % 8.
  // Words past n are sentinels the kernel must not touch.
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
        hk::Epilogue ep;
        ep.stages.push_back({rq, relu, 0, 1});
        ep.common = 1;
        ep.sinks.push_back(slab_sink(1, n, false, false));
        std::vector<std::int64_t> out(n + kGuard, kSentinel);
        std::size_t sat_kernel = 0;
        std::size_t ovf_kernel = 0;
        hk::write_out(hk::Rows<std::int64_t>{in.data(), 1, n, n}, ep,
                      bytes_of(out), &sat_kernel, &ovf_kernel);
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
        EXPECT_EQ(ovf_kernel, 0u);
      }
    }
  }
}

TEST(KernelEquivalence, FinalizeI32MatchesScalarFinalize) {
  // write_out turns a narrow int32 accumulator block into activations with
  // wrap + requant; values, overflow and saturation totals must equal the
  // scalar Accum::finalize element loop. Twice: the full int32 range into
  // an int64 slab (the portable int64 body), and, certified narrow, into an
  // int16 slab (the AVX-512 int32 body where the host has it) from a block
  // whose values stay inside the certificate: after the wrap, |acc| plus
  // the rounding half, or acc shifted left, fits int32. out_ch sweeps
  // every tail length and the deployed widths; the pad lanes of each
  // out_pad-stride row hold full-range garbage, so a tail that counts a
  // pad lane moves the totals, and words past the output are sentinels,
  // so a tail that stores one fails. 257 values per row are more than the
  // AVX-512 body takes: that row runs the portable body.
  util::Xoshiro256 rng(11);
  struct Case {
    hls::FixedSpec act;
    int product_frac;
    int guard;
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  // Rings of 18, 24, 12 and 16 bits, and one of 32 that never wraps, where
  // the certificate caps |acc| at 2^31 - 1 - 2^15 (out shift 16).
  for (const auto& c : {Case{{16, 7}, 18, 2}, Case{{16, 3}, 26, 8},
                        Case{{12, 10}, 4, 0}, Case{{16, 14}, 2, 6},
                        Case{{16, 7}, 30, 16}}) {
    const Accum ac(c.act, c.product_frac, c.product_frac, c.guard);
    // The largest |acc| the narrow certificate admits; a ring under 32
    // bits wraps any int32 first, to at most 2^(ring_bits - 1).
    const int sh = ac.out.shift;
    const std::int64_t read_max =
        sh > 0 ? kMax - (std::int64_t{1} << (sh - 1))
               : (sh < 0 ? kMax >> -sh : kMax);
    ASSERT_TRUE(sh > -32 && sh < 32) << "case not certifiable";
    const std::int64_t narrow_max =
        ac.ring_bits < 32 ? kMax : read_max;
    if (ac.ring_bits < 32) {
      ASSERT_LE(std::int64_t{1} << (ac.ring_bits - 1), read_max)
          << "case not certifiable";
    }
    for (std::size_t out_ch : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                               12u, 13u, 14u, 15u, 16u, 17u, 31u, 46u,
                               140u, 256u, 257u}) {
      const std::size_t positions = 9;
      const std::size_t stride = hls::kernels::narrow_out_pad(out_ch);
      std::vector<std::int32_t> full(positions * stride);
      for (auto& v : full) {
        v = static_cast<std::int32_t>(rng());
        v >>= rng() % 24;
      }
      full[0] = std::numeric_limits<std::int32_t>::max();
      full[stride] = std::numeric_limits<std::int32_t>::min();
      // The same draw scaled into [-narrow_max, narrow_max] on the value
      // lanes, its ends included.
      std::vector<std::int32_t> certified = full;
      for (std::size_t p = 0; p < positions; ++p) {
        for (std::size_t o = 0; o < out_ch; ++o) {
          auto& v = certified[p * stride + o];
          v = static_cast<std::int32_t>(std::int64_t{v} * narrow_max >> 31);
        }
      }
      certified[0] = static_cast<std::int32_t>(narrow_max);
      certified[stride] = static_cast<std::int32_t>(-narrow_max);
      for (bool i16 : {false, true}) {
        const std::vector<std::int32_t>& acc = i16 ? certified : full;
        std::size_t ovf_ref = 0;
        std::size_t sat_ref = 0;
        std::vector<std::int64_t> want(positions * out_ch);
        for (std::size_t p = 0; p < positions; ++p) {
          for (std::size_t o = 0; o < out_ch; ++o) {
            want[p * out_ch + o] =
                ac.finalize(acc[p * stride + o], ovf_ref, sat_ref);
          }
        }
        hk::Epilogue ep;
        ep.narrow = i16;
        ep.sinks.push_back(slab_sink(positions, out_ch, i16, false));
        auto block = sentinel_block(slab_bytes(ep.sinks[0], positions) + 64);
        const auto before = block;
        std::size_t ovf_fast = 0;
        std::size_t sat_fast = 0;
        hk::write_out(hk::Rows<std::int32_t>{acc.data(), positions, out_ch,
                                             stride, 1, &ac},
                      ep, bytes_of(block), &sat_fast, &ovf_fast);
        const auto* i16s = reinterpret_cast<const std::int16_t*>(block.data());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(i16 ? std::int64_t{i16s[i]} : block[i], want[i])
              << "out_ch=" << out_ch << " i16=" << i16 << " i=" << i;
        }
        const std::size_t end = want.size() * (i16 ? 2 : 8);
        const auto* b = reinterpret_cast<const unsigned char*>(block.data());
        const auto* b0 = reinterpret_cast<const unsigned char*>(before.data());
        for (std::size_t i = end; i < block.size() * 8; ++i) {
          ASSERT_EQ(b[i], b0[i]) << "out_ch=" << out_ch << " byte " << i;
        }
        EXPECT_EQ(ovf_fast, ovf_ref) << "out_ch=" << out_ch << " i16=" << i16;
        EXPECT_EQ(sat_fast, sat_ref) << "out_ch=" << out_ch << " i16=" << i16;
      }
    }
  }
}

// int16 rows and their nonzero lists for a narrow MAC layer, written the
// way every producer writes them: through write_out into an int16 slab
// with lists. `scalar` runs the portable body.
struct Packed {
  std::vector<std::int16_t> x16;
  std::vector<std::uint16_t> nz;
  std::vector<std::uint16_t> nnz;
};
Packed pack(const std::vector<std::int64_t>& x, std::size_t positions,
            std::size_t in_ch, bool scalar = false) {
  hk::Epilogue ep;
  ep.narrow = true;  // every value fits int16
  ep.sinks.push_back(slab_sink(positions, in_ch, true, true));
  const hk::Sink& s = ep.sinks[0];
  auto block = sentinel_block(slab_bytes(s, positions));
  std::size_t sat = 0;
  std::size_t ovf = 0;
  const hk::Rows<std::int64_t> rows{x.data(), positions, in_ch, in_ch};
  if (scalar) {
    hk::detail::write_out_scalar(rows, ep, bytes_of(block), &sat, &ovf);
  } else {
    hk::write_out(rows, ep, bytes_of(block), &sat, &ovf);
  }
  const auto* base = reinterpret_cast<const unsigned char*>(block.data());
  const auto* x16 = reinterpret_cast<const std::int16_t*>(base);
  const auto* nz = reinterpret_cast<const std::uint16_t*>(base + s.nz);
  const auto* nnz = reinterpret_cast<const std::uint16_t*>(base + s.nnz);
  return {{x16, x16 + positions * in_ch},
          {nz, nz + positions * in_ch},
          {nnz, nnz + positions}};
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
  // write_out's int16 rows and lists + the dispatched narrow kernels
  // against a naive int64 'same' convolution, across input sparsity (the nonzero lists are the only
  // thing deciding which terms are summed), all-zero rows and rows whose
  // only nonzero is the first or last channel, positions 1-7 (below k and
  // every positions % 3, which the input-stationary k == 3 pass unrolls
  // by), k in {1, 3, 5}, shifts 0 and 3, and output widths with and
  // without a trailing 16-block, in one pass and several.
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
        for (std::size_t positions = 1; positions <= 7; ++positions) {
          for (double zero_frac : {0.0, 0.5, 0.9, 1.0}) {
            for (bool edge_rows : {false, true}) {
              const auto x = activations(positions, in_ch, zero_frac,
                                         edge_rows, rng, draw);
              const auto [x16, nz, nnz] = pack(x, positions, in_ch);
              for (int shift : {0, 3}) {
                const auto want =
                    conv_ref(x, w, bias, positions, in_ch, out_ch, k, shift);
                std::vector<std::int32_t> acc(positions * out_pad, -7);
                hls::kernels::conv1d_acc_i16(
                    x16.data(), nz.data(), nnz.data(), wtr_n.data(),
                    bias.data(), acc.data(), positions, in_ch, out_ch,
                    out_pad, k, shift);
                for (std::size_t p = 0; p < positions; ++p) {
                  for (std::size_t o = 0; o < out_ch; ++o) {
                    ASSERT_EQ(acc[p * out_pad + o], want[p * out_ch + o])
                        << "in_ch=" << in_ch << " out_ch=" << out_ch
                        << " k=" << k << " positions=" << positions
                        << " zero_frac=" << zero_frac
                        << " edge_rows=" << edge_rows << " shift=" << shift
                        << " p=" << p << " o=" << o;
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
          const auto [x16, nz, nnz] = pack(x, positions, in_ch);
          const auto want =
              conv_ref(x, w, bias, positions, in_ch, out_ch, k, shift);
          for (bool scalar : {false, true}) {
            std::vector<std::int32_t> acc(positions * out_pad, -7);
            const auto fn = scalar ? hls::kernels::detail::conv1d_acc_i16_scalar
                                   : hls::kernels::conv1d_acc_i16;
            fn(x16.data(), nz.data(), nnz.data(), wtr.data(), bias.data(),
               acc.data(), positions, in_ch, out_ch, out_pad, k, shift);
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
  // The dispatched write_out / conv1d_acc_i16 (AVX-512 here when the host
  // has it) against the portable bodies every other host runs, on channel
  // counts around the 16-lane step, positions 1-7, all-zero rows and rows
  // whose only nonzero is the first or last channel. The int16 rows, list
  // lengths and listed indices the write-out stores must agree, and match
  // x; conv's first out_ch accumulators per row must agree, over the same
  // narrow_weights buffer, for k in {1, 3, 5} and output widths with and
  // without a trailing 16-block, in one pass and several. The fused
  // epilogue's portable body is checked in
  // FusedWriteOutMatchesFinalizeThenRequant.
  util::Xoshiro256 rng(29);
  const auto draw = [&rng] {
    const auto v = static_cast<std::int64_t>(rng.uniform_int(65536)) - 32768;
    return v == 0 ? std::int64_t{-5} : v;
  };
  for (std::size_t in_ch : {1u, 15u, 16u, 17u, 31u, 77u, 186u}) {
    for (std::size_t positions = 1; positions <= 7; ++positions) {
      const auto x = activations(positions, in_ch, 0.5, true, rng, draw);
      const auto [x16, nz, nnz] = pack(x, positions, in_ch);
      const auto scalar = pack(x, positions, in_ch, true);
      ASSERT_EQ(x16, scalar.x16) << "in_ch=" << in_ch;
      ASSERT_EQ(nnz, scalar.nnz) << "in_ch=" << in_ch;
      // Absolute output too, so a bug both bodies share still fails: each
      // row is x narrowed, and its list holds exactly the nonzero channels
      // in ascending order.
      for (std::size_t p = 0; p < positions; ++p) {
        std::vector<std::uint16_t> want_nz;
        for (std::size_t i = 0; i < in_ch; ++i) {
          const std::int64_t v = x[p * in_ch + i];
          ASSERT_EQ(x16[p * in_ch + i], static_cast<std::int16_t>(v))
              << "in_ch=" << in_ch << " p=" << p << " i=" << i;
          if (v != 0) want_nz.push_back(static_cast<std::uint16_t>(i));
        }
        ASSERT_EQ(nnz[p], want_nz.size()) << "in_ch=" << in_ch << " p=" << p;
        for (std::size_t j = 0; j < nnz[p]; ++j) {
          ASSERT_EQ(nz[p * in_ch + j], want_nz[j])
              << "in_ch=" << in_ch << " p=" << p << " j=" << j;
          ASSERT_EQ(scalar.nz[p * in_ch + j], want_nz[j])
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
            bias[o] = static_cast<std::int32_t>(rng.uniform_int(2001)) - 1000;
          }
          std::vector<std::int32_t> acc(positions * out_pad, 5);
          std::vector<std::int32_t> acc_s(positions * out_pad, -5);
          hls::kernels::conv1d_acc_i16(x16.data(), nz.data(), nnz.data(),
                                       wtr.data(), bias.data(), acc.data(),
                                       positions, in_ch, out_ch, out_pad, k,
                                       shift);
          hls::kernels::detail::conv1d_acc_i16_scalar(
              x16.data(), nz.data(), nnz.data(), wtr.data(), bias.data(),
              acc_s.data(), positions, in_ch, out_ch, out_pad, k, shift);
          for (std::size_t p = 0; p < positions; ++p) {
            for (std::size_t o = 0; o < out_ch; ++o) {
              ASSERT_EQ(acc[p * out_pad + o], acc_s[p * out_pad + o])
                  << "in_ch=" << in_ch << " positions=" << positions
                  << " out_ch=" << out_ch << " k=" << k << " p=" << p
                  << " o=" << o;
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, MaxPoolMatchesReferenceWithSaturation) {
  // A MaxPool write-out (max over `factor` rows, then the pool's requant as
  // its common stage) against the reference executor's MaxPool loop:
  // values AND saturation counts, for narrowing, identity and widening
  // shifts and the degenerate bands (<= -63, >= 64), on int64 inputs large
  // enough to saturate (the portable int64 body), and where the shift is
  // int32-exact, on int16 inputs certified narrow into an int16 slab with
  // lists (the AVX-512 int32 body where the host has it), on channel counts
  // around the 8- and 16-lane steps.
  util::Xoshiro256 rng(31);
  const std::size_t positions = 5;
  for (int from_frac : {30, 9, 2, -5, -70, 80}) {  // shift = from_frac - 9
    const Requant rq = make_requant(from_frac, 16, 7);
    for (std::size_t factor : {1u, 2u, 3u}) {
      for (std::size_t ch : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 21u}) {
        hk::Epilogue ep;
        ep.stages.push_back({rq, false, 0, 1});
        ep.common = 1;
        std::vector<std::int64_t> in(positions * factor * ch);
        for (auto& v : in) {
          const auto u = rng();
          v = static_cast<std::int64_t>(u) >> (u % 60);
        }
        in[0] = std::numeric_limits<std::int64_t>::max();
        in[in.size() - 1] = std::numeric_limits<std::int64_t>::min();
        const bool narrow = from_frac > -20 && from_frac < 40;
        std::vector<std::int16_t> in16(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
          in16[i] = static_cast<std::int16_t>(in[i]);
        }
        for (bool i16 : {false, true}) {
          if (i16 && !narrow) continue;
          ep.narrow = i16;
          ep.sinks.assign(1, slab_sink(positions, ch, i16, i16));
          auto block = sentinel_block(slab_bytes(ep.sinks[0], positions));
          std::size_t sat = 0;
          std::size_t ovf = 0;
          if (i16) {
            hk::write_out(hk::Rows<std::int16_t>{in16.data(), positions, ch,
                                                 ch, factor},
                          ep, bytes_of(block), &sat, &ovf);
          } else {
            hk::write_out(
                hk::Rows<std::int64_t>{in.data(), positions, ch, ch, factor},
                ep, bytes_of(block), &sat, &ovf);
          }
          const auto* base = reinterpret_cast<const unsigned char*>(block.data());
          const auto* nnz =
              reinterpret_cast<const std::uint16_t*>(base + ep.sinks[0].nnz);
          std::size_t sat_ref = 0;
          for (std::size_t p = 0; p < positions; ++p) {
            std::size_t nonzero = 0;
            for (std::size_t c = 0; c < ch; ++c) {
              const auto at = [&](std::size_t d) {
                const std::size_t j = (p * factor + d) * ch + c;
                return i16 ? std::int64_t{in16[j]} : in[j];
              };
              std::int64_t m = at(0);
              for (std::size_t d = 1; d < factor; ++d) m = std::max(m, at(d));
              const std::int64_t want = rq.apply(m, sat_ref);
              const std::int64_t got =
                  i16 ? std::int64_t{reinterpret_cast<const std::int16_t*>(
                            base)[p * ch + c]}
                      : block[p * ch + c];
              ASSERT_EQ(got, want) << "shift=" << rq.shift << " factor="
                                   << factor << " ch=" << ch << " i16=" << i16
                                   << " p=" << p << " c=" << c;
              nonzero += static_cast<std::size_t>(want != 0);
            }
            if (i16) {
              ASSERT_EQ(nnz[p], nonzero) << "p=" << p;
            }
          }
          EXPECT_EQ(sat, sat_ref) << "shift=" << rq.shift << " factor="
                                  << factor << " ch=" << ch << " i16=" << i16;
          EXPECT_EQ(ovf, 0u);
          if (!i16 && rq.shift < 0 && rq.shift > -63) {
            EXPECT_GT(sat_ref, 0u) << "widening inputs must saturate";
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, FusedWriteOutMatchesFinalizeThenRequant) {
  // A MAC layer's write-out with its fused ReLU and two sinks, against the
  // scalar composition Accum::finalize -> Requant::apply (ReLU) ->
  // Requant::apply (Concatenate input), through the dispatched write_out
  // (certified narrow: the AVX-512 body where the host has it) and the
  // portable body:
  //  - sink 0: the ReLU's own int16 slab with lists, first writer;
  //  - sink 1: a Concatenate slab, rows replicated twice (an UpSampling),
  //    at channel offset 5 of a wider row whose first 5 channels and list
  //    another input already wrote, so its lists append.
  // Common stage: none, or ReLU at shift 0 or -1; the Concatenate's
  // requant shifts by 2, 3 or -2. Accumulators reach past the ring (wraps);
  // without a ReLU the -2 widening saturates at both int16 ends. Pad lanes
  // of each out_pad row hold values that would wrap and saturate if they
  // were counted. The whole block is compared byte for byte against the
  // expected image, lists absolutely: exactly the nonzero channels, in
  // ascending order, after the other input's.
  util::Xoshiro256 rng(37);
  const hls::FixedSpec act{16, 5};
  const Accum ac(act, 22, 22, 6);  // acc_frac 17: out shift 6, ring 22 bits
  constexpr std::size_t kOther = 5;
  for (int relu_shift : {1, 0, -1}) {  // 1: no ReLU stage
    for (int cat_shift : {2, 3, -2}) {
      for (std::size_t out_ch : {1u, 15u, 16u, 17u, 31u, 46u}) {
        for (std::size_t positions : {1u, 2u, 5u, 7u}) {
          const std::size_t pad = hk::narrow_out_pad(out_ch);
          std::vector<std::int32_t> acc(positions * pad);
          for (std::size_t i = 0; i < acc.size(); ++i) {
            const auto u = rng();
            acc[i] = i % pad < out_ch
                         ? static_cast<std::int32_t>(u % (1u << 23)) - (1 << 22)
                         : static_cast<std::int32_t>(u >> 34) - (1 << 29);
          }
          hk::Epilogue ep;
          ep.narrow = true;
          const bool relu = relu_shift != 1;
          hls::FixedSpec mid = act;
          if (relu) {
            mid = {16, act.int_bits + relu_shift};
            ep.stages.push_back({Requant(act.width - act.int_bits, mid), true,
                                 1, 1});
            ASSERT_EQ(ep.stages.back().rq.shift, relu_shift);
            ep.common = 1;
          }
          const Requant cat_rq(mid.width - mid.int_bits,
                               hls::FixedSpec{16, mid.int_bits + cat_shift});
          ASSERT_EQ(cat_rq.shift, cat_shift);
          ep.stages.push_back({cat_rq, false, 2, 2});
          hk::Sink own = slab_sink(positions, out_ch, true, true);
          const std::size_t cat_rows = 2 * positions;
          hk::Sink cat = slab_sink(cat_rows, kOther + out_ch, true, true);
          const std::size_t cat_at =
              (slab_bytes(own, positions) + 63) / 64 * 64;
          cat.values += cat_at;
          cat.nz += cat_at;
          cat.nnz += cat_at;
          cat.channel = kOther;
          cat.rep = 2;
          cat.reset = false;
          cat.stage_begin = ep.common;
          cat.stage_end = ep.common + 1;
          ep.sinks = {own, cat};
          auto block = sentinel_block(cat_at + slab_bytes(cat, cat_rows) + 64);
          // The other Concatenate input's channels and lists.
          auto* bytes = reinterpret_cast<unsigned char*>(block.data());
          auto* cat16 = reinterpret_cast<std::int16_t*>(bytes + cat.values);
          auto* cat_nz = reinterpret_cast<std::uint16_t*>(bytes + cat.nz);
          auto* cat_nnz = reinterpret_cast<std::uint16_t*>(bytes + cat.nnz);
          for (std::size_t r = 0; r < cat_rows; ++r) {
            std::uint16_t n = 0;
            for (std::size_t c = 0; c < kOther; ++c) {
              const auto v =
                  static_cast<std::int16_t>(static_cast<int>(rng.uniform_int(3)) - 1);
              cat16[r * cat.stride + c] = v;
              if (v != 0) cat_nz[r * cat.stride + n++] = static_cast<std::uint16_t>(c);
            }
            cat_nnz[r] = n;
          }
          // Expected image and counts.
          auto want = block;
          auto* wb = reinterpret_cast<unsigned char*>(want.data());
          auto* w_own = reinterpret_cast<std::int16_t*>(wb + own.values);
          auto* w_own_nz = reinterpret_cast<std::uint16_t*>(wb + own.nz);
          auto* w_own_nnz = reinterpret_cast<std::uint16_t*>(wb + own.nnz);
          auto* w_cat = reinterpret_cast<std::int16_t*>(wb + cat.values);
          auto* w_cat_nz = reinterpret_cast<std::uint16_t*>(wb + cat.nz);
          auto* w_cat_nnz = reinterpret_cast<std::uint16_t*>(wb + cat.nnz);
          std::size_t want_sat[3] = {};
          std::size_t want_ovf = 0;
          for (std::size_t p = 0; p < positions; ++p) {
            std::uint16_t n_own = 0;
            std::vector<std::int16_t> row(out_ch);
            for (std::size_t o = 0; o < out_ch; ++o) {
              std::int64_t v = ac.finalize(acc[p * pad + o], want_ovf,
                                           want_sat[0]);
              if (relu) {
                v = ep.stages[0].rq.apply(std::max<std::int64_t>(0, v),
                                          want_sat[1]);
              }
              w_own[p * out_ch + o] = static_cast<std::int16_t>(v);
              if (v != 0) {
                w_own_nz[p * out_ch + n_own++] = static_cast<std::uint16_t>(o);
              }
              std::size_t cat_events = 0;
              row[o] = static_cast<std::int16_t>(cat_rq.apply(v, cat_events));
              want_sat[2] += 2 * cat_events;
            }
            w_own_nnz[p] = n_own;
            for (std::size_t r = 2 * p; r < 2 * p + 2; ++r) {
              std::uint16_t n = w_cat_nnz[r];
              for (std::size_t o = 0; o < out_ch; ++o) {
                w_cat[r * cat.stride + kOther + o] = row[o];
                if (row[o] != 0) {
                  w_cat_nz[r * cat.stride + n++] =
                      static_cast<std::uint16_t>(kOther + o);
                }
              }
              w_cat_nnz[r] = n;
            }
          }
          const std::string label =
              "relu_shift=" + std::to_string(relu_shift) +
              " cat_shift=" + std::to_string(cat_shift) +
              " out_ch=" + std::to_string(out_ch) +
              " positions=" + std::to_string(positions);
          if (relu_shift == 1 && cat_shift == -2 && out_ch >= 15 &&
              positions == 5) {
            // Both int16 ends are reached.
            EXPECT_GT(std::count(w_cat, w_cat + cat_rows * cat.stride,
                                 std::int16_t{32767}), 0) << label;
            EXPECT_GT(std::count(w_cat, w_cat + cat_rows * cat.stride,
                                 std::int16_t{-32768}), 0) << label;
          }
          for (bool scalar : {false, true}) {
            auto got = block;
            std::size_t sat[3] = {};
            std::size_t ovf[3] = {};
            const hk::Rows<std::int32_t> rows{acc.data(), positions, out_ch,
                                              pad, 1, &ac};
            if (scalar) {
              hk::detail::write_out_scalar(rows, ep, bytes_of(got), sat, ovf);
            } else {
              hk::write_out(rows, ep, bytes_of(got), sat, ovf);
            }
            // List slots past a row's length are unspecified (the portable
            // body writes a row's slots branch-free): take them from `want`.
            auto* gb = reinterpret_cast<unsigned char*>(got.data());
            for (const hk::Sink& k : ep.sinks) {
              const auto* len = reinterpret_cast<const std::uint16_t*>(wb + k.nnz);
              for (std::size_t r = 0; r < positions * k.rep; ++r) {
                const std::size_t from = (r * k.stride + len[r]) * 2;
                const std::size_t to = (r + 1) * k.stride * 2;
                std::copy(wb + k.nz + from, wb + k.nz + to, gb + k.nz + from);
              }
            }
            ASSERT_EQ(got, want) << label << " scalar=" << scalar;
            for (int i = 0; i < 3; ++i) {
              EXPECT_EQ(sat[i], want_sat[i])
                  << label << " scalar=" << scalar << " layer " << i;
            }
            EXPECT_EQ(ovf[0], want_ovf) << label << " scalar=" << scalar;
          }
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
  // A 16-bit layer-based U-Net is the deployed configuration: every Dense/Conv1D layer's proven envelope must fit int32 (narrow
  // lane), the proof bounds must be self-consistent, and the narrow
  // execution must stay bit-identical to the reference executor on frames
  // hot enough to saturate. Uniform <16,9> gives every MAC layer product
  // shift 0, which takes the same narrow lane.
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 61);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(random_frame({16, 1}, 50u + static_cast<unsigned>(i)));
  }
  const auto prof = hls::profile_model(model, calib);
  for (const auto& quant : {hls::layer_based_config(model, prof, 16),
                            hls::QuantConfig::uniform({16, 9})}) {
    hls::HlsConfig cfg;
    cfg.quant = quant;
    const hls::QuantizedModel qm(hls::compile(model, cfg));
    const std::string label = quant.strategy == hls::PrecisionStrategy::kUniform
                                  ? "uniform<16,9>"
                                  : "layer-based 16";

    const auto& report = qm.lanes();
    ASSERT_GT(report.mac_layers, 0u) << label;
    EXPECT_EQ(report.narrow_layers, report.mac_layers)
        << label << ": every MAC layer must prove narrow";
    ASSERT_EQ(report.decisions.size(), report.ranges.size()) << label;
    for (std::size_t i = 0; i < report.decisions.size(); ++i) {
      const auto& d = report.decisions[i];
      const auto& r = report.ranges[i];
      ASSERT_LE(r.lo, r.hi) << label << " " << i;
      if (!d.mac_layer) continue;
      EXPECT_EQ(d.lane, hls::Lane::kNarrow32) << label << " " << d.reason;
      ASSERT_LE(d.env_lo, d.env_hi) << label << " " << i;
      // The narrow claim itself: every partial sum fits int32.
      EXPECT_GE(d.env_lo, std::numeric_limits<std::int32_t>::min()) << i;
      EXPECT_LE(d.env_hi, std::numeric_limits<std::int32_t>::max()) << i;
      EXPECT_FALSE(d.reason.empty()) << label << " " << i;
    }

    for (int f = 0; f < 4; ++f) {
      const double scale = f < 2 ? 1.0 : 25.0;
      const auto raw = qm.quantize_input(
          random_frame({16, 1}, 300u + static_cast<unsigned>(f), scale));
      hls::ForwardStats fast_stats;
      hls::ForwardStats ref_stats;
      EXPECT_EQ(qm.forward_raw(raw, &fast_stats),
                qm.forward_raw_reference(raw, &ref_stats))
          << label << " frame " << f;
      EXPECT_EQ(fast_stats.saturations, ref_stats.saturations)
          << label << " frame " << f;
      EXPECT_EQ(fast_stats.overflows, ref_stats.overflows)
          << label << " frame " << f;
    }
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
    if (d.mac_layer) {
      EXPECT_EQ(d.lane, hls::Lane::kWide64) << d.reason;
    }
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
