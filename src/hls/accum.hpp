// Fixed-point re-quantization and MAC-accumulator arithmetic shared by the
// quantized executor (qmodel.cpp) and its blocked kernels (qkernels.cpp).
// These used to live in qmodel.cpp's anonymous namespace; they moved here
// unchanged when the kernels were split into their own translation unit so
// both paths stay bit-identical by construction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "hls/precision.hpp"

namespace reads::hls::detail {

/// Precomputed re-quantizer: shift from a source fraction alignment into a
/// destination FixedSpec with round-to-nearest (ties away from zero) and
/// saturation, counting saturation events.
struct Requant {
  int shift = 0;  // >0: drop bits, <0: widen
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  Requant() = default;
  Requant(int from_frac_bits, const FixedSpec& to) {
    shift = from_frac_bits - (to.width - to.int_bits);
    // Destination widths >= 64 mean "the whole int64 range": shifting
    // int64_t{1} by 63+ is UB, so clamp to the representable extremes.
    if (to.width >= 64) {
      hi = std::numeric_limits<std::int64_t>::max();
      lo = std::numeric_limits<std::int64_t>::min();
    } else {
      hi = (std::int64_t{1} << (to.width - 1)) - 1;
      lo = -(std::int64_t{1} << (to.width - 1));
    }
  }

  std::int64_t apply(std::int64_t v, std::size_t& saturations) const noexcept {
    if (shift >= 64) {
      // The rounding half is 2^(shift-1) > |v| for every int64 except
      // v = INT64_MIN at shift == 64 (the only |v| reaching the half):
      // everything else rounds to zero. Shift counts >= 64 would be UB
      // below, so the band is resolved by value analysis instead.
      v = (shift == 64 && v == std::numeric_limits<std::int64_t>::min()) ? -1
                                                                         : 0;
    } else if (shift > 0) {
      // Round to nearest, ties away from zero, on the unsigned magnitude:
      // `v + half` on int64 overflows for v near the type extremes (and
      // `-v` for INT64_MIN), but mag + half < 2^64 always, and the shifted
      // result fits back in int64 because shift >= 1 halves it at least
      // once. Matches the AVX-512 lanes (abs + unsigned shift) bit-exactly.
      const std::uint64_t half = std::uint64_t{1} << (shift - 1);
      const std::uint64_t mag =
          v >= 0 ? static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(-(v + 1)) + 1;
      const std::uint64_t r = (mag + half) >> shift;
      v = v >= 0 ? static_cast<std::int64_t>(r)
                 : static_cast<std::int64_t>(0 - r);
    } else if (shift < 0) {
      // Widening: `v << k` overflows int64 for large |v| (signed-overflow
      // UB) before the clamp below could catch it. Saturate against the
      // pre-shift thresholds instead: v<<k > hi iff v > hi>>k (v<<k is a
      // multiple of 2^k), and v<<k < lo iff v < ceil(lo / 2^k), which is
      // floor(lo / 2^k) + 1 unless 2^k divides lo. Bit-identical to the
      // old shift-then-clamp on every input the old code handled without
      // overflowing.
      const int k = -shift;
      if (k >= 63) {
        // Any nonzero value overshoots the representable range.
        if (v > 0) {
          ++saturations;
          return hi;
        }
        if (v < 0) {
          ++saturations;
          return lo;
        }
        return 0;
      }
      const std::int64_t hi_thr = hi >> k;
      const std::int64_t lo_floor = lo >> k;
      const std::int64_t lo_thr =
          lo_floor * (std::int64_t{1} << k) == lo ? lo_floor : lo_floor + 1;
      if (v > hi_thr) {
        ++saturations;
        return hi;
      }
      if (v < lo_thr) {
        ++saturations;
        return lo;
      }
      v <<= k;
    }
    if (v < lo) {
      ++saturations;
      return lo;
    }
    if (v > hi) {
      ++saturations;
      return hi;
    }
    return v;
  }
};

/// The MAC accumulator of a layer: a fixed-point register with the layer's
/// activation integer range plus `guard` extra fraction bits, wrapping on
/// overflow exactly like an AC_WRAP ac_fixed accumulator. Because wrap is
/// modular arithmetic, accumulating exactly in int64 and wrapping once at
/// the end is bit-identical to wrapping after every addition — and because
/// int64 addition is exact at our magnitudes, the *order* in which terms
/// are accumulated is free: blocked kernels produce the same final sums,
/// hence the same overflow/saturation counts, as the reference loops.
struct Accum {
  int prod_shift = 0;   ///< product frac -> accumulator frac (>= 0)
  int bias_shift = 0;   ///< stored bias frac -> accumulator frac
  int ring_bits = 24;   ///< accumulator register width
  std::int64_t ring_lo = 0;
  std::int64_t ring_hi = 0;
  std::uint64_t mask = 0;
  Requant out;          ///< accumulator frac -> activation spec

  Accum(const FixedSpec& act, int product_frac, int stored_bias_frac,
        int guard_bits) {
    const int act_frac = act.width - act.int_bits;
    const int acc_frac = std::min(act_frac + guard_bits, product_frac);
    prod_shift = product_frac - acc_frac;
    // The accumulator never keeps more fraction bits than the product, so
    // every MAC term is a right shift (or none); nothing handles a left one.
    assert(prod_shift >= 0);
    bias_shift = stored_bias_frac - acc_frac;
    ring_bits = act.int_bits + acc_frac;
    // Degenerate all-fraction formats still need a 1-bit ring.
    if (ring_bits < 1) ring_bits = 1;
    // Rings of 64+ bits cover the whole accumulator: the shift below would
    // be UB (the mask line already clamps this case), and since the exact
    // int64 sum always lies inside such a ring, finalize never wraps.
    if (ring_bits >= 64) {
      ring_hi = std::numeric_limits<std::int64_t>::max();
      ring_lo = std::numeric_limits<std::int64_t>::min();
    } else {
      ring_hi = (std::int64_t{1} << (ring_bits - 1)) - 1;
      ring_lo = -(std::int64_t{1} << (ring_bits - 1));
    }
    mask = ring_bits >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << ring_bits) - 1;
    out = Requant(acc_frac, act);
  }

  std::int64_t term(std::int64_t product) const noexcept {
    // AC_TRN: arithmetic right shift == floor division.
    return product >> prod_shift;
  }

  std::int64_t bias(std::int64_t stored) const noexcept {
    return bias_shift >= 0 ? stored >> bias_shift : stored << -bias_shift;
  }

  std::int64_t finalize(std::int64_t exact, std::size_t& overflows,
                        std::size_t& saturations) const noexcept {
    std::int64_t wrapped = exact;
    if (exact < ring_lo || exact > ring_hi) {
      ++overflows;
      auto u = static_cast<std::uint64_t>(exact) & mask;
      if (u & (std::uint64_t{1} << (ring_bits - 1))) u |= ~mask;
      wrapped = static_cast<std::int64_t>(u);
    }
    return out.apply(wrapped, saturations);
  }
};

}  // namespace reads::hls::detail
