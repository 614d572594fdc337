#include "hls/lanes.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "hls/accum.hpp"

namespace reads::hls {

namespace {

using detail::Accum;
using detail::Requant;

// All prover arithmetic runs in 128-bit integers: weight/product magnitudes
// are caller-controlled (property tests sweep wide specs), and a prover that
// can itself overflow proves nothing.
__extension__ using Wide = __int128;

constexpr std::int64_t kI16Lo = std::numeric_limits<std::int16_t>::min();
constexpr std::int64_t kI16Hi = std::numeric_limits<std::int16_t>::max();
constexpr Wide kI32Lo = std::numeric_limits<std::int32_t>::min();
constexpr Wide kI32Hi = std::numeric_limits<std::int32_t>::max();
// Narrow kernels list a row's nonzero inputs as uint16 indices with a
// uint16 length (qkernels.hpp write_out), so a row may hold at most this
// many input channels.
constexpr std::size_t kMaxListedChannels =
    std::numeric_limits<std::uint16_t>::max();

int frac_bits(const FixedSpec& spec) noexcept {
  return spec.width - spec.int_bits;
}

/// Saturation range of a spec: every word a Requant writes lands in here.
RawInterval spec_range(const FixedSpec& spec) {
  const Requant rq(0, spec);
  return {rq.lo, rq.hi};
}

/// Image of an interval under a Requant. apply() is monotone (rounding,
/// shifting, and clamping all preserve order), so the image is the image of
/// the endpoints.
RawInterval requant_range(const Requant& rq, RawInterval in) {
  std::size_t scratch = 0;
  return {rq.apply(in.lo, scratch), rq.apply(in.hi, scratch)};
}

/// term() on a 128-bit product: AC_TRN floor shift, exact in Wide.
Wide wide_term(const Accum& ac, Wide product) {
  return product >> ac.prod_shift;
}

/// Interval of (w * x) >> prod_shift over x in [in.lo, in.hi] for one fixed
/// weight word. Both the product and the shift are monotone in x (for fixed
/// w the product is linear; floor shift preserves order), so endpoints
/// suffice.
struct TermBound {
  Wide lo;
  Wide hi;
};
TermBound term_bound(const Accum& ac, std::int64_t w, RawInterval in) {
  const Wide a = wide_term(ac, Wide{w} * in.lo);
  const Wide b = wide_term(ac, Wide{w} * in.hi);
  return {std::min(a, b), std::max(a, b)};
}

/// Accumulator envelope of one Dense/Conv1D output (or one BatchNorm
/// channel): bounds over the final sum and over every partial sum a kernel
/// can form (bias first, any subset of taps in any order — conv boundary
/// positions drop taps).
struct Envelope {
  Wide final_lo = 0, final_hi = 0;  ///< all terms present
  Wide part_lo = 0, part_hi = 0;    ///< any prefix/subset of terms
};

void fold_term(Envelope& e, TermBound t) {
  e.final_lo += t.lo;
  e.final_hi += t.hi;
  e.part_lo += std::min<Wide>(0, t.lo);
  e.part_hi += std::max<Wide>(0, t.hi);
}

Envelope seed_envelope(Wide bias) {
  Envelope e;
  e.final_lo = e.final_hi = e.part_lo = e.part_hi = bias;
  return e;
}

std::int64_t clamp_i64(Wide v) {
  constexpr Wide lo = std::numeric_limits<std::int64_t>::min();
  constexpr Wide hi = std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(std::clamp(v, lo, hi));
}

/// Map a proven pre-finalize interval through Accum::finalize. Sound only
/// when the interval cannot wrap; callers check the ring first.
RawInterval finalize_range(const Accum& ac, Wide lo, Wide hi) {
  std::size_t scratch = 0;
  return {ac.out.apply(clamp_i64(lo), scratch),
          ac.out.apply(clamp_i64(hi), scratch)};
}

RawInterval union_of(RawInterval a, RawInterval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

std::string interval_str(Wide lo, Wide hi) {
  // Decisions only ever quote values that went through clamp_i64 bounds
  // checks; format via int64 after clamping for display. Appended piece by
  // piece: the `"[" + std::string` form trips GCC 12's -Wrestrict inside
  // libstdc++.
  std::string s = "[";
  s += std::to_string(clamp_i64(lo));
  s += ", ";
  s += std::to_string(clamp_i64(hi));
  s += "]";
  return s;
}

}  // namespace

std::string_view to_string(Lane lane) noexcept {
  switch (lane) {
    case Lane::kWide64:
      return "wide64";
    case Lane::kNarrow32:
      return "narrow32";
  }
  return "?";
}

LaneReport prove_lanes(const FirmwareModel& fw) {
  LaneReport report;
  report.decisions.resize(fw.layers.size());
  report.ranges.resize(fw.layers.size());

  for (std::size_t idx = 0; idx < fw.layers.size(); ++idx) {
    const auto& l = fw.layers[idx];
    auto& decision = report.decisions[idx];
    auto& range = report.ranges[idx];
    const auto act_range = spec_range(l.quant.activation);

    if (l.kind == LayerKind::kInput) {
      // forward()/quantize_input() saturate every word into the input spec;
      // forward_raw() documents the same range as a precondition.
      range = act_range;
      decision.reason = "input: spec saturation range";
      continue;
    }

    const auto& src0 = fw.layers[l.inputs[0]];
    const RawInterval in0 = report.ranges[l.inputs[0]];
    const int in_frac = frac_bits(src0.quant.activation);

    switch (l.kind) {
      case LayerKind::kInput:
        break;  // handled above

      case LayerKind::kDense:
      case LayerKind::kConv1D: {
        decision.mac_layer = true;
        ++report.mac_layers;
        const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                       l.bias_frac_bits, fw.config.quant.accum_guard_bits);
        const std::size_t k = l.kind == LayerKind::kDense ? 1 : l.kernel;
        const std::size_t taps = k * l.in_channels;

        Envelope layer_env;  // union over outputs
        bool first = true;
        std::int64_t w_lo = 0, w_hi = 0;
        for (std::size_t o = 0; o < l.out_channels; ++o) {
          Envelope e = seed_envelope(
              ac.bias_shift >= 0
                  ? Wide{l.bias_raw[o]} >> ac.bias_shift
                  : Wide{l.bias_raw[o]} << -ac.bias_shift);
          for (std::size_t t = 0; t < taps; ++t) {
            const std::int64_t w = l.weights_raw[o * taps + t];
            w_lo = std::min(w_lo, w);
            w_hi = std::max(w_hi, w);
            fold_term(e, term_bound(ac, w, in0));
          }
          if (first) {
            layer_env = e;
            first = false;
          } else {
            layer_env.final_lo = std::min(layer_env.final_lo, e.final_lo);
            layer_env.final_hi = std::max(layer_env.final_hi, e.final_hi);
            layer_env.part_lo = std::min(layer_env.part_lo, e.part_lo);
            layer_env.part_hi = std::max(layer_env.part_hi, e.part_hi);
          }
        }
        decision.env_lo = clamp_i64(layer_env.part_lo);
        decision.env_hi = clamp_i64(layer_env.part_hi);

        // Output range: conv boundary positions drop taps, so the subset
        // envelope bounds their sums; dense always sums every tap.
        const Wide sum_lo =
            l.kind == LayerKind::kDense ? layer_env.final_lo
                                        : layer_env.part_lo;
        const Wide sum_hi =
            l.kind == LayerKind::kDense ? layer_env.final_hi
                                        : layer_env.part_hi;
        if (sum_lo >= ac.ring_lo && sum_hi <= ac.ring_hi) {
          range = finalize_range(ac, sum_lo, sum_hi);
        } else {
          range = act_range;  // may wrap: only the spec bound survives
        }

        // Narrow-lane verdict.
        if (w_lo < kI16Lo || w_hi > kI16Hi) {
          decision.reason = "wide64: weights exceed int16";
        } else if (in0.lo < kI16Lo || in0.hi > kI16Hi) {
          decision.reason = "wide64: source activations exceed int16";
        } else if (ac.prod_shift > 31) {
          decision.reason = "wide64: product shift " +
                            std::to_string(ac.prod_shift) + " exceeds 31";
        } else if (l.in_channels > kMaxListedChannels) {
          decision.reason = "wide64: " + std::to_string(l.in_channels) +
                            " input channels overflow uint16 nonzero lists";
        } else if (layer_env.part_lo < kI32Lo || layer_env.part_hi > kI32Hi) {
          decision.reason =
              "wide64: accumulator envelope " +
              interval_str(layer_env.part_lo, layer_env.part_hi) +
              " exceeds int32";
        } else {
          decision.lane = Lane::kNarrow32;
          decision.reason =
              "narrow32: envelope " +
              interval_str(layer_env.part_lo, layer_env.part_hi) +
              " fits int32, shift " + std::to_string(ac.prod_shift);
          ++report.narrow_layers;
        }
        break;
      }

      case LayerKind::kBatchNorm: {
        const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                       l.bias_frac_bits, fw.config.quant.accum_guard_bits);
        bool wraps = false;
        RawInterval out{0, 0};
        bool first = true;
        for (std::size_t c = 0; c < l.out_channels; ++c) {
          const TermBound t = term_bound(ac, l.weights_raw[c], in0);
          const Wide bias = ac.bias_shift >= 0
                                ? Wide{l.bias_raw[c]} >> ac.bias_shift
                                : Wide{l.bias_raw[c]} << -ac.bias_shift;
          const Wide lo = t.lo + bias;
          const Wide hi = t.hi + bias;
          if (lo < ac.ring_lo || hi > ac.ring_hi) {
            wraps = true;
            break;
          }
          const RawInterval r = finalize_range(ac, lo, hi);
          out = first ? r : union_of(out, r);
          first = false;
        }
        range = wraps || first ? act_range : out;
        decision.reason = "scale/shift (int64 path)";
        break;
      }

      case LayerKind::kMaxPool: {
        range = requant_range(Requant(in_frac, l.quant.activation), in0);
        decision.reason = "pool (requant image)";
        break;
      }

      case LayerKind::kUpSample: {
        range = requant_range(Requant(in_frac, l.quant.activation), in0);
        // Positions that are not a multiple of the factor leave raw zeros in
        // the tail of the output slab (the executor fills, then writes
        // in_pos * factor positions).
        const std::size_t in_pos = l.positions / l.factor;
        if (in_pos * l.factor != l.positions) {
          range.lo = std::min<std::int64_t>(range.lo, 0);
          range.hi = std::max<std::int64_t>(range.hi, 0);
        }
        decision.reason = "upsample (requant image)";
        break;
      }

      case LayerKind::kConcat: {
        const auto& src1 = fw.layers[l.inputs[1]];
        const RawInterval in1 = report.ranges[l.inputs[1]];
        range = union_of(
            requant_range(Requant(in_frac, l.quant.activation), in0),
            requant_range(
                Requant(frac_bits(src1.quant.activation), l.quant.activation),
                in1));
        decision.reason = "concat (requant image union)";
        break;
      }

      case LayerKind::kRelu: {
        const RawInterval clamped{std::max<std::int64_t>(0, in0.lo),
                                  std::max<std::int64_t>(0, in0.hi)};
        range = requant_range(Requant(in_frac, l.quant.activation), clamped);
        decision.reason = "relu (requant image of [max(0,lo), max(0,hi)])";
        break;
      }

      case LayerKind::kSigmoid: {
        // LUT entries are quantizations of sigmoid(x) in (0, 1): the output
        // format is monotone, so entries lie in [0, quantize(1.0)].
        const auto fmt = l.quant.activation.format();
        range = {0, fmt.quantize(1.0)};
        decision.reason = "sigmoid (LUT image in [0, quantize(1)])";
        break;
      }

      case LayerKind::kFlatten: {
        range = requant_range(Requant(in_frac, l.quant.activation), in0);
        decision.reason = "flatten (requant image)";
        break;
      }
    }
  }
  return report;
}

}  // namespace reads::hls
