#include "hls/qmodel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "hls/accum.hpp"
#include "hls/qkernels.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace reads::hls {

namespace {

using detail::Accum;
using detail::Requant;

int frac_bits(const FixedSpec& spec) noexcept {
  return spec.width - spec.int_bits;
}

}  // namespace

namespace {

/// Arena words (8 bytes each) holding `count` elements of T.
template <typename T>
std::size_t words(std::size_t count) {
  return (count * sizeof(T) + sizeof(std::int64_t) - 1) /
         sizeof(std::int64_t);
}

/// Greedy-by-size offline arena plan. Layer i's int64 slab is live from
/// step i (its write) to the step of its last reader; the output slab lives
/// to the end of the frame. Slabs go largest first (ties by layer index),
/// each rounded up to 8 words, at the lowest offset that clears every
/// already-placed slab whose lifetime overlaps its own, so a layer never
/// writes over an input it reads or over a slab a later layer still reads.
/// Fills `offset` (words per layer) and returns the peak words.
std::size_t plan_slabs(const FirmwareModel& fw,
                       std::vector<std::size_t>& offset) {
  const std::size_t n = fw.layers.size();
  std::vector<std::size_t> last(n);
  std::vector<std::size_t> size(n);
  for (std::size_t i = 0; i < n; ++i) {
    last[i] = i;
    for (const std::size_t j : fw.layers[i].inputs) {
      last[j] = std::max(last[j], i);
    }
    size[i] = (fw.layers[i].positions * fw.layers[i].out_channels + 7) &
              ~std::size_t{7};
  }
  if (n > 0) last[n - 1] = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return size[a] > size[b];
                   });
  offset.assign(n, 0);
  std::size_t peak = 0;
  std::vector<std::size_t> live;  // placed slabs overlapping the current one
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    live.clear();
    for (std::size_t q = 0; q < p; ++q) {
      const std::size_t j = order[q];
      if (j <= last[i] && i <= last[j]) live.push_back(j);
    }
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return offset[a] < offset[b];
    });
    std::size_t at = 0;
    for (const std::size_t j : live) {
      if (at + size[i] <= offset[j]) break;
      at = std::max(at, offset[j] + size[j]);
    }
    offset[i] = at;
    peak = std::max(peak, at + size[i]);
  }
  return peak;
}

}  // namespace

QuantizedModel::QuantizedModel(FirmwareModel firmware)
    : fw_(std::move(firmware)), lanes_(prove_lanes(fw_)) {
  act_words_ = plan_slabs(fw_, act_offset_);
  plans_.resize(fw_.layers.size());
  sigmoid_tables_.resize(fw_.layers.size());
  for (std::size_t i = 0; i < fw_.layers.size(); ++i) {
    const auto& l = fw_.layers[i];
    if (l.kind == LayerKind::kSigmoid) {
      auto& table = sigmoid_tables_[i];
      table.resize(kSigmoidTableSize);
      const auto out_fmt = l.quant.activation.format();
      for (std::size_t b = 0; b < kSigmoidTableSize; ++b) {
        const double x = -kSigmoidRange +
                         (static_cast<double>(b) + 0.5) * 2.0 * kSigmoidRange /
                             static_cast<double>(kSigmoidTableSize);
        table[b] = out_fmt.quantize(1.0 / (1.0 + std::exp(-x)));
      }
    }
    if (l.kind == LayerKind::kDense || l.kind == LayerKind::kConv1D) {
      const auto& src0 = fw_.layers[l.inputs[0]];
      const Accum ac(l.quant.activation,
                     frac_bits(l.quant.weight) +
                         frac_bits(src0.quant.activation),
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      auto& plan = plans_[i];
      const std::size_t k = l.kind == LayerKind::kDense ? 1 : l.kernel;
      plan.lane = lanes_.decisions[i].lane;
      if (plan.lane == Lane::kWide64) {
        plan.wtr.resize(k * l.in_channels * l.out_channels);
        for (std::size_t o = 0; o < l.out_channels; ++o) {
          for (std::size_t dk = 0; dk < k; ++dk) {
            for (std::size_t c = 0; c < l.in_channels; ++c) {
              plan.wtr[(dk * l.in_channels + c) * l.out_channels + o] =
                  l.weights_raw[(o * k + dk) * l.in_channels + c];
            }
          }
        }
        plan.bias_acc.resize(l.out_channels);
        for (std::size_t o = 0; o < l.out_channels; ++o) {
          plan.bias_acc[o] = ac.bias(l.bias_raw[o]);
        }
        continue;
      }
      // Narrow lane: the prover certified weights/activations fit int16 and
      // every partial sum fits int32, so the downcasts below are exact.
      plan.out_pad = kernels::narrow_out_pad(l.out_channels);
      plan.wtr16 = kernels::narrow_weights(l.weights_raw.data(),
                                           l.out_channels, k, l.in_channels);
      plan.bias32.assign(plan.out_pad, 0);
      for (std::size_t o = 0; o < l.out_channels; ++o) {
        plan.bias32[o] = static_cast<std::int32_t>(ac.bias(l.bias_raw[o]));
      }
      // One arena scope per narrow layer: int16 rows, their nonzero lists
      // and list lengths, and the int32 accumulators.
      const std::size_t row_words = l.positions * l.in_channels;
      narrow_words_ = std::max(
          narrow_words_, words<std::int16_t>(row_words) +
                             words<std::uint16_t>(row_words) +
                             words<std::uint16_t>(l.positions) +
                             words<std::int32_t>(l.positions * plan.out_pad));
    }
  }
}

std::vector<std::int64_t> QuantizedModel::quantize_input(
    const Tensor& input) const {
  if (input.numel() != fw_.input_values) {
    throw std::invalid_argument("QuantizedModel: input size mismatch");
  }
  const auto fmt = fw_.input_spec.format(fixed::QuantMode::kRound);
  std::vector<std::int64_t> raw;
  raw.reserve(input.numel());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    raw.push_back(fmt.quantize(input[i]));
  }
  return raw;
}

Tensor QuantizedModel::dequantize_output(
    const std::vector<std::int64_t>& raw) const {
  const auto& out = fw_.layers.back();
  if (raw.size() != fw_.output_values) {
    throw std::invalid_argument("QuantizedModel: output size mismatch");
  }
  const auto fmt = fw_.output_spec.format();
  Tensor t({out.positions, out.out_channels});
  for (std::size_t i = 0; i < raw.size(); ++i) {
    t[i] = static_cast<float>(fmt.to_double(raw[i]));
  }
  return t;
}

void QuantizedModel::prepare_stats(ForwardStats* stats) const {
  if (!stats) return;
  if (stats->saturations.size() != fw_.layers.size()) {
    stats->saturations.assign(fw_.layers.size(), 0);
  }
  if (stats->overflows.size() != fw_.layers.size()) {
    stats->overflows.assign(fw_.layers.size(), 0);
  }
}

Tensor QuantizedModel::forward(const Tensor& input, ForwardStats* stats) const {
  Tensor t;
  forward_into(input, t, stats);
  return t;
}

void QuantizedModel::forward_into(const Tensor& input, Tensor& out,
                                  ForwardStats* stats) const {
  if (input.numel() != fw_.input_values) {
    throw std::invalid_argument("QuantizedModel: input size mismatch");
  }
  prepare_stats(stats);
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  arena.require<std::int64_t>(act_words_ + narrow_words_);
  auto block = arena.alloc<std::int64_t>(act_words_);
  const auto in_fmt = fw_.input_spec.format(fixed::QuantMode::kRound);
  std::int64_t* in_raw = block.data() + act_offset_[0];
  for (std::size_t i = 0; i < input.numel(); ++i) {
    in_raw[i] = in_fmt.quantize(input[i]);
  }
  const std::int64_t* out_raw = execute(block.data(), stats);
  const auto& out_layer = fw_.layers.back();
  const auto out_fmt = fw_.output_spec.format();
  out.resize({out_layer.positions, out_layer.out_channels});
  for (std::size_t i = 0; i < fw_.output_values; ++i) {
    out[i] = static_cast<float>(out_fmt.to_double(out_raw[i]));
  }
}

std::vector<Tensor> QuantizedModel::forward_batch(std::span<const Tensor> inputs,
                                                  ForwardStats* stats) const {
  prepare_stats(stats);
  std::vector<Tensor> outputs(inputs.size());
  std::mutex mutex;
  util::parallel_for(0, inputs.size(), [&](std::size_t f) {
    ForwardStats local;
    outputs[f] = forward(inputs[f], stats ? &local : nullptr);
    if (stats) {
      std::lock_guard lock(mutex);
      for (std::size_t i = 0; i < local.saturations.size(); ++i) {
        stats->saturations[i] += local.saturations[i];
        stats->overflows[i] += local.overflows[i];
      }
    }
  });
  return outputs;
}

std::vector<std::int64_t> QuantizedModel::forward_raw(
    const std::vector<std::int64_t>& input_raw, ForwardStats* stats) const {
  if (input_raw.size() != fw_.input_values) {
    throw std::invalid_argument("QuantizedModel: raw input size mismatch");
  }
  prepare_stats(stats);
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  arena.require<std::int64_t>(act_words_ + narrow_words_);
  auto block = arena.alloc<std::int64_t>(act_words_);
  std::copy(input_raw.begin(), input_raw.end(),
            block.data() + act_offset_[0]);
  const std::int64_t* out = execute(block.data(), stats);
  return {out, out + fw_.output_values};
}

std::vector<std::int64_t> QuantizedModel::forward_raw_profiled(
    const std::vector<std::int64_t>& input_raw, std::span<double> layer_ns,
    std::span<MacInputs> inputs) const {
  if (input_raw.size() != fw_.input_values) {
    throw std::invalid_argument("QuantizedModel: raw input size mismatch");
  }
  if (layer_ns.size() != fw_.layers.size() ||
      (!inputs.empty() && inputs.size() != fw_.layers.size())) {
    throw std::invalid_argument("QuantizedModel: profile size mismatch");
  }
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  arena.require<std::int64_t>(act_words_ + narrow_words_);
  auto block = arena.alloc<std::int64_t>(act_words_);
  std::int64_t* acts = block.data();
  std::copy(input_raw.begin(), input_raw.end(), acts + act_offset_[0]);
  for (std::size_t i = 1; i < fw_.layers.size(); ++i) {
    const auto& l = fw_.layers[i];
    if (!inputs.empty() &&
        (l.kind == LayerKind::kDense || l.kind == LayerKind::kConv1D)) {
      // Count the MAC layer's input rows now, while its source slab is
      // live, weighting a row by the taps that read it ('same' padding:
      // edge rows are read by fewer).
      const std::int64_t* in0 = acts + act_offset_[l.inputs[0]];
      const auto k = static_cast<std::ptrdiff_t>(
          l.kind == LayerKind::kDense ? 1 : l.kernel);
      const auto pos = static_cast<std::ptrdiff_t>(l.positions);
      for (std::ptrdiff_t q = 0; q < pos; ++q) {
        const std::int64_t* row =
            in0 + static_cast<std::size_t>(q) * l.in_channels;
        const std::uint64_t nonzero =
            l.in_channels - static_cast<std::uint64_t>(std::count(
                                row, row + l.in_channels, std::int64_t{0}));
        std::uint64_t taps = 0;
        for (std::ptrdiff_t dk = 0; dk < k; ++dk) {
          const std::ptrdiff_t p = q - dk + k / 2;
          taps += static_cast<std::uint64_t>(p >= 0 && p < pos);
        }
        inputs[i].inputs += l.in_channels;
        inputs[i].nonzero_inputs += nonzero;
        inputs[i].macs += taps * l.in_channels * l.out_channels;
        inputs[i].listed_terms += taps * nonzero;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    run_layer_fast(i, acts, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    layer_ns[i] += std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  const std::int64_t* out = acts + act_offset_.back();
  return {out, out + fw_.output_values};
}

const std::int64_t* QuantizedModel::execute(std::int64_t* acts,
                                            ForwardStats* stats) const {
  for (std::size_t i = 1; i < fw_.layers.size(); ++i) {
    run_layer_fast(i, acts, stats);
  }
  return acts + act_offset_.back();
}

void QuantizedModel::run_layer_fast(std::size_t idx, std::int64_t* acts,
                                    ForwardStats* stats) const {
  const auto& l = fw_.layers[idx];
  const std::int64_t* in0 = acts + act_offset_[l.inputs[0]];
  std::int64_t* out = acts + act_offset_[idx];
  const auto& src0 = fw_.layers[l.inputs[0]];
  const int in_frac = frac_bits(src0.quant.activation);
  const std::size_t n = l.positions * l.out_channels;
  std::size_t sat = 0;
  std::size_t ovf = 0;

  switch (l.kind) {
    case LayerKind::kInput:
      throw std::logic_error("run_layer on input node");

    case LayerKind::kDense:
    case LayerKind::kConv1D: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      const auto& plan = plans_[idx];
      const std::size_t k = l.kind == LayerKind::kDense ? 1 : l.kernel;
      if (plan.lane == Lane::kNarrow32) {
        // Narrow lane (prover-certified): copy the source slab down to
        // int16 once, listing each row's nonzero inputs, accumulate only
        // the listed terms in int32 (an unlisted term is (0 * w) >> s = 0),
        // and finalize through the shared Accum — the int32 sums equal the
        // exact int64 sums by the proof, so outputs and stats counters are
        // bit-identical to the wide path.
        auto& arena = util::ScratchArena::local();
        util::ArenaScope narrow_scope(arena);
        const std::size_t row_words = l.positions * l.in_channels;
        auto x16 = arena.alloc<std::int16_t>(row_words);
        auto nz = arena.alloc<std::uint16_t>(row_words);
        auto nnz = arena.alloc<std::uint16_t>(l.positions);
        auto acc32 = arena.alloc<std::int32_t>(l.positions * plan.out_pad);
        kernels::pack_i16(in0, l.positions, l.in_channels, x16.data(),
                          nz.data(), nnz.data());
        kernels::conv1d_acc_i16(x16.data(), nz.data(), nnz.data(),
                                plan.wtr16.data(), plan.bias32.data(),
                                acc32.data(), l.positions, l.in_channels,
                                l.out_channels, plan.out_pad, k,
                                ac.prod_shift);
        kernels::finalize_i32(acc32.data(), out, l.positions, l.out_channels,
                              plan.out_pad, ac, ovf, sat);
        break;
      }
      kernels::conv1d_acc(in0, plan.wtr.data(), plan.bias_acc.data(), out,
                          l.positions, l.in_channels, l.out_channels, k,
                          ac.prod_shift);
      for (std::size_t j = 0; j < n; ++j) {
        out[j] = ac.finalize(out[j], ovf, sat);
      }
      break;
    }

    case LayerKind::kBatchNorm: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      for (std::size_t p = 0; p < l.positions; ++p) {
        for (std::size_t c = 0; c < l.out_channels; ++c) {
          const std::int64_t acc =
              ac.term(l.weights_raw[c] * in0[p * l.out_channels + c]) +
              ac.bias(l.bias_raw[c]);
          out[p * l.out_channels + c] = ac.finalize(acc, ovf, sat);
        }
      }
      break;
    }

    case LayerKind::kMaxPool: {
      const Requant rq(in_frac, l.quant.activation);
      kernels::maxpool_i64(in0, out, l.positions, l.out_channels, l.factor,
                           rq, sat);
      break;
    }

    case LayerKind::kUpSample: {
      const Requant rq(in_frac, l.quant.activation);
      const std::size_t ch = l.out_channels;
      const std::size_t in_pos = l.positions / l.factor;
      if (in_pos * l.factor != l.positions) {
        std::fill(out, out + n, std::int64_t{0});
      }
      // Requant each source row once and replicate it; the reference
      // requants every replica separately, so the row's saturation count
      // scales by the replication factor to keep ForwardStats identical.
      for (std::size_t p = 0; p < in_pos; ++p) {
        std::int64_t* row = out + (p * l.factor) * ch;
        std::size_t row_sat = 0;
        kernels::requant_i64(in0 + p * ch, row, ch, rq, /*relu=*/false,
                             row_sat);
        for (std::size_t d = 1; d < l.factor; ++d) {
          std::copy(row, row + ch, row + d * ch);
        }
        sat += row_sat * l.factor;
      }
      break;
    }

    case LayerKind::kConcat: {
      const std::int64_t* in1 = acts + act_offset_[l.inputs[1]];
      const auto& src1 = fw_.layers[l.inputs[1]];
      const Requant rq0(in_frac, l.quant.activation);
      const Requant rq1(frac_bits(src1.quant.activation), l.quant.activation);
      const std::size_t c0 = src0.out_channels;
      const std::size_t c1 = src1.out_channels;
      for (std::size_t p = 0; p < l.positions; ++p) {
        std::int64_t* yp = out + p * (c0 + c1);
        kernels::requant_i64(in0 + p * c0, yp, c0, rq0, /*relu=*/false, sat);
        kernels::requant_i64(in1 + p * c1, yp + c0, c1, rq1, /*relu=*/false,
                             sat);
      }
      break;
    }

    case LayerKind::kRelu: {
      const Requant rq(in_frac, l.quant.activation);
      kernels::requant_i64(in0, out, n, rq, /*relu=*/true, sat);
      break;
    }

    case LayerKind::kSigmoid: {
      const auto& table = sigmoid_tables_[idx];
      const double scale = std::ldexp(1.0, -in_frac);
      const double buckets_per_unit =
          static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidRange);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(in0[i]) * scale;
        auto b = static_cast<std::ptrdiff_t>(
            std::floor((x + kSigmoidRange) * buckets_per_unit));
        b = std::clamp<std::ptrdiff_t>(
            b, 0, static_cast<std::ptrdiff_t>(kSigmoidTableSize) - 1);
        out[i] = table[static_cast<std::size_t>(b)];
      }
      break;
    }

    case LayerKind::kFlatten: {
      const Requant rq(in_frac, l.quant.activation);
      kernels::requant_i64(in0, out, n, rq, /*relu=*/false, sat);
      break;
    }
  }

  if (stats) {
    stats->saturations[idx] += sat;
    stats->overflows[idx] += ovf;
  }
}

// ---------------------------------------------------------------------------
// Reference (seed) executor, kept verbatim as the bit-exactness oracle.
// ---------------------------------------------------------------------------

void QuantizedModel::run_layer_reference(
    std::size_t idx, const std::vector<std::vector<std::int64_t>>& acts,
    std::vector<std::int64_t>& out, ForwardStats* stats) const {
  const auto& l = fw_.layers[idx];
  const auto& in0 = acts[l.inputs[0]];
  const auto& src0 = fw_.layers[l.inputs[0]];
  const int in_frac = frac_bits(src0.quant.activation);
  std::size_t sat = 0;
  std::size_t ovf = 0;
  out.assign(l.positions * l.out_channels, 0);

  switch (l.kind) {
    case LayerKind::kInput:
      throw std::logic_error("run_layer on input node");

    case LayerKind::kDense: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      const std::size_t in_ch = l.in_channels;
      const std::size_t out_ch = l.out_channels;
      for (std::size_t p = 0; p < l.positions; ++p) {
        const std::int64_t* xp = in0.data() + p * in_ch;
        std::int64_t* yp = out.data() + p * out_ch;
        for (std::size_t o = 0; o < out_ch; ++o) {
          const std::int64_t* wo = l.weights_raw.data() + o * in_ch;
          std::int64_t acc = ac.bias(l.bias_raw[o]);
          for (std::size_t i = 0; i < in_ch; ++i) acc += ac.term(wo[i] * xp[i]);
          yp[o] = ac.finalize(acc, ovf, sat);
        }
      }
      break;
    }

    case LayerKind::kConv1D: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      const std::size_t in_ch = l.in_channels;
      const std::size_t out_ch = l.out_channels;
      const std::size_t k = l.kernel;
      const auto pad = static_cast<std::ptrdiff_t>(k / 2);
      const auto positions = static_cast<std::ptrdiff_t>(l.positions);
      for (std::size_t p = 0; p < l.positions; ++p) {
        std::int64_t* yp = out.data() + p * out_ch;
        for (std::size_t o = 0; o < out_ch; ++o) {
          std::int64_t acc = ac.bias(l.bias_raw[o]);
          for (std::size_t dk = 0; dk < k; ++dk) {
            const std::ptrdiff_t q = static_cast<std::ptrdiff_t>(p + dk) - pad;
            if (q < 0 || q >= positions) continue;
            const std::int64_t* xq =
                in0.data() + static_cast<std::size_t>(q) * in_ch;
            const std::int64_t* wk =
                l.weights_raw.data() + (o * k + dk) * in_ch;
            for (std::size_t i = 0; i < in_ch; ++i) {
              acc += ac.term(wk[i] * xq[i]);
            }
          }
          yp[o] = ac.finalize(acc, ovf, sat);
        }
      }
      break;
    }

    case LayerKind::kBatchNorm: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      for (std::size_t p = 0; p < l.positions; ++p) {
        for (std::size_t c = 0; c < l.out_channels; ++c) {
          const std::int64_t acc =
              ac.term(l.weights_raw[c] * in0[p * l.out_channels + c]) +
              ac.bias(l.bias_raw[c]);
          out[p * l.out_channels + c] = ac.finalize(acc, ovf, sat);
        }
      }
      break;
    }

    case LayerKind::kMaxPool: {
      const Requant rq(in_frac, l.quant.activation);
      const std::size_t ch = l.out_channels;
      for (std::size_t p = 0; p < l.positions; ++p) {
        for (std::size_t c = 0; c < ch; ++c) {
          std::int64_t m = in0[(p * l.factor) * ch + c];
          for (std::size_t d = 1; d < l.factor; ++d) {
            m = std::max(m, in0[(p * l.factor + d) * ch + c]);
          }
          out[p * ch + c] = rq.apply(m, sat);
        }
      }
      break;
    }

    case LayerKind::kUpSample: {
      const Requant rq(in_frac, l.quant.activation);
      const std::size_t ch = l.out_channels;
      const std::size_t in_pos = l.positions / l.factor;
      for (std::size_t p = 0; p < in_pos; ++p) {
        for (std::size_t d = 0; d < l.factor; ++d) {
          for (std::size_t c = 0; c < ch; ++c) {
            out[(p * l.factor + d) * ch + c] = rq.apply(in0[p * ch + c], sat);
          }
        }
      }
      break;
    }

    case LayerKind::kConcat: {
      const auto& in1 = acts[l.inputs[1]];
      const auto& src1 = fw_.layers[l.inputs[1]];
      const Requant rq0(in_frac, l.quant.activation);
      const Requant rq1(frac_bits(src1.quant.activation), l.quant.activation);
      const std::size_t c0 = src0.out_channels;
      const std::size_t c1 = src1.out_channels;
      for (std::size_t p = 0; p < l.positions; ++p) {
        for (std::size_t c = 0; c < c0; ++c) {
          out[p * (c0 + c1) + c] = rq0.apply(in0[p * c0 + c], sat);
        }
        for (std::size_t c = 0; c < c1; ++c) {
          out[p * (c0 + c1) + c0 + c] = rq1.apply(in1[p * c1 + c], sat);
        }
      }
      break;
    }

    case LayerKind::kRelu: {
      const Requant rq(in_frac, l.quant.activation);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = rq.apply(std::max<std::int64_t>(0, in0[i]), sat);
      }
      break;
    }

    case LayerKind::kSigmoid: {
      const auto& table = sigmoid_tables_[idx];
      const double scale = std::ldexp(1.0, -in_frac);
      const double buckets_per_unit =
          static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidRange);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double x = static_cast<double>(in0[i]) * scale;
        auto b = static_cast<std::ptrdiff_t>(
            std::floor((x + kSigmoidRange) * buckets_per_unit));
        b = std::clamp<std::ptrdiff_t>(
            b, 0, static_cast<std::ptrdiff_t>(kSigmoidTableSize) - 1);
        out[i] = table[static_cast<std::size_t>(b)];
      }
      break;
    }

    case LayerKind::kFlatten: {
      const Requant rq(in_frac, l.quant.activation);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = rq.apply(in0[i], sat);
      }
      break;
    }
  }

  if (stats) {
    stats->saturations[idx] += sat;
    stats->overflows[idx] += ovf;
  }
}

std::vector<std::int64_t> QuantizedModel::forward_raw_reference(
    const std::vector<std::int64_t>& input_raw, ForwardStats* stats) const {
  if (input_raw.size() != fw_.input_values) {
    throw std::invalid_argument("QuantizedModel: raw input size mismatch");
  }
  prepare_stats(stats);
  std::vector<std::vector<std::int64_t>> acts(fw_.layers.size());
  acts[0] = input_raw;
  for (std::size_t i = 1; i < fw_.layers.size(); ++i) {
    run_layer_reference(i, acts, acts[i], stats);
  }
  return acts.back();
}

}  // namespace reads::hls
