#include "hls/qmodel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "hls/accum.hpp"
#include "hls/qkernels.hpp"
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

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::size_t round64(std::size_t bytes) {
  return (bytes + 63) & ~std::size_t{63};
}

/// Arena words (8 bytes each) covering `bytes`.
std::size_t words(std::size_t bytes) {
  return (bytes + sizeof(std::int64_t) - 1) / sizeof(std::int64_t);
}

bool is_mac(LayerKind kind) noexcept {
  return kind == LayerKind::kDense || kind == LayerKind::kConv1D;
}

bool fits_i16(const RawInterval& r) noexcept {
  return r.lo >= std::numeric_limits<std::int16_t>::min() &&
         r.hi <= std::numeric_limits<std::int16_t>::max();
}

/// Largest magnitude in [lo, hi], saturating at INT64_MAX.
std::int64_t magnitude(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo == std::numeric_limits<std::int64_t>::min()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::max(-lo, hi);
}

/// Is `rq` exact in int32 lanes on inputs of magnitude <= `bound`: the
/// inputs, the rounding sum |v| + half (narrowing) or v << k (widening)
/// and the clamp bounds fit int32, and the shift count fits a 32-bit lane?
bool int32_exact(const Requant& rq, std::int64_t bound) noexcept {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  if (bound > kMax || rq.shift <= -32 || rq.shift >= 32 || rq.lo < kMin ||
      rq.hi > kMax) {
    return false;
  }
  if (rq.shift < 0) return bound <= (kMax >> -rq.shift);
  return rq.shift == 0 || bound + (std::int64_t{1} << (rq.shift - 1)) <= kMax;
}

/// Byte offsets of a slab's parts: values, then (with lists) the per-row
/// nonzero lists and the list lengths.
struct SlabParts {
  std::size_t values = 0;
  std::size_t nz = 0;
  std::size_t nnz = 0;
  std::size_t bytes = 0;
};
SlabParts slab_parts(const FirmwareLayer& l, std::size_t elem, bool lists) {
  const std::size_t n = l.positions * l.out_channels;
  SlabParts parts;
  parts.nz = round64(n * elem);
  parts.nnz = parts.nz + (lists ? round64(n * sizeof(std::uint16_t)) : 0);
  parts.bytes =
      parts.nnz + (lists ? round64(l.positions * sizeof(std::uint16_t)) : 0);
  return parts;
}

/// Greedy-by-size offline arena plan over the slabs with bytes > 0: each
/// is live from its first writer's step to its last reader's (the
/// output's to the end of the frame). Slabs go largest first (ties by
/// layer index) at the lowest offset that clears every already-placed slab
/// whose lifetime overlaps its own, so a step never writes over a slab it
/// reads or over one a later step still reads. Fills `offset` and returns
/// the peak bytes.
std::size_t plan_offsets(std::vector<QuantizedModel::SlabPlan>& slabs) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    if (slabs[i].bytes > 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slabs[a].bytes > slabs[b].bytes;
                   });
  std::size_t peak = 0;
  std::vector<std::size_t> live;  // placed slabs overlapping the current one
  for (std::size_t p = 0; p < order.size(); ++p) {
    auto& s = slabs[order[p]];
    live.clear();
    for (std::size_t q = 0; q < p; ++q) {
      const auto& o = slabs[order[q]];
      if (o.first <= s.last && s.first <= o.last) live.push_back(order[q]);
    }
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return slabs[a].offset < slabs[b].offset;
    });
    std::size_t at = 0;
    for (const std::size_t j : live) {
      if (at + s.bytes <= slabs[j].offset) break;
      at = std::max(at, slabs[j].offset + slabs[j].bytes);
    }
    s.offset = at;
    peak = std::max(peak, at + s.bytes);
  }
  return peak;
}

/// Builds each producer's write-out. A producer is the input or a layer
/// that runs a step; the layers fused into it contribute stages:
///  - a ReLU that is the producer's only reader (and, in turn, one that is
///    such a ReLU's only reader): a common stage;
///  - an UpSampling of a value the write-out computes: a stage, and its
///    rows replicated;
///  - a Concatenate input: a stage, and the channel offset of that input.
/// A value reaches a sink — its own slab — when any other layer reads it,
/// when it is the output, or when nothing reads it (so its stages still
/// count). A requant that provably changes nothing (shift 0, source range
/// inside the destination's) is no stage: it neither moves a value nor
/// saturates.
struct WriteOutPlanner {
  struct Reader {
    std::size_t layer;
    std::size_t slot;
  };

  const FirmwareModel& fw;
  const LaneReport& lanes;
  std::vector<std::vector<Reader>> readers;
  std::vector<bool> step;
  std::vector<bool> fused;  ///< ReLU run as a common stage of a producer
  /// Per producer: the slab each of its sinks writes.
  std::vector<std::vector<std::size_t>> sink_slab;

  WriteOutPlanner(const FirmwareModel& model, const LaneReport& report)
      : fw(model),
        lanes(report),
        readers(model.layers.size()),
        step(model.layers.size(), false),
        fused(model.layers.size(), false),
        sink_slab(model.layers.size()) {
    for (std::size_t i = 1; i < fw.layers.size(); ++i) {
      const auto& in = fw.layers[i].inputs;
      for (std::size_t slot = 0; slot < in.size(); ++slot) {
        readers[in[slot]].push_back({i, slot});
      }
    }
    for (std::size_t i = 1; i < fw.layers.size(); ++i) {
      const auto& l = fw.layers[i];
      if (l.kind == LayerKind::kUpSample || l.kind == LayerKind::kConcat) {
        continue;
      }
      const std::size_t src = l.inputs[0];
      fused[i] = l.kind == LayerKind::kRelu && readers[src].size() == 1 &&
                 (src == 0 || step[src] || fused[src]);
      step[i] = !fused[i];
    }
  }

  int frac(std::size_t layer) const {
    const auto& spec = fw.layers[layer].quant.activation;
    return spec.width - spec.int_bits;
  }

  std::int64_t bound(std::size_t layer) const {
    return magnitude(lanes.ranges[layer].lo, lanes.ranges[layer].hi);
  }

  /// Append the stage for `y` reading `x` unless it is a provable no-op.
  bool push_stage(kernels::Epilogue& ep, std::vector<kernels::Stage>& path,
                  std::size_t x, std::size_t y, std::size_t mult) const {
    const Requant rq(frac(x), fw.layers[y].quant.activation);
    const RawInterval in = lanes.ranges[x];
    if (rq.shift == 0 && in.lo >= rq.lo && in.hi <= rq.hi) return false;
    path.push_back({rq, false, static_cast<std::uint32_t>(y),
                    static_cast<std::uint32_t>(mult)});
    ep.narrow = ep.narrow && int32_exact(rq, bound(x));
    return true;
  }

  /// Does the producer's own arithmetic, before any stage, stay exact in
  /// int32 lanes? Its source values must fit, and a MAC layer's
  /// accumulator requant must be int32-exact on the prover's envelope
  /// (or the ring, when that is narrower than 32 bits and can wrap).
  bool narrow_source(std::size_t producer) const {
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    const auto& l = fw.layers[producer];
    switch (l.kind) {
      case LayerKind::kInput:
      case LayerKind::kSigmoid:
        return bound(producer) <= kMax;
      case LayerKind::kMaxPool:
      case LayerKind::kRelu:
      case LayerKind::kFlatten:
        return bound(l.inputs[0]) <= kMax;
      case LayerKind::kDense:
      case LayerKind::kConv1D: {
        const auto& d = lanes.decisions[producer];
        if (d.lane != Lane::kNarrow32) return false;
        const Accum ac(l.quant.activation,
                       frac_bits(l.quant.weight) + frac(l.inputs[0]),
                       l.bias_frac_bits, fw.config.quant.accum_guard_bits);
        std::int64_t b = magnitude(d.env_lo, d.env_hi);
        if (ac.ring_bits < 32) {
          b = std::max(b, std::int64_t{1} << (ac.ring_bits - 1));
        }
        return int32_exact(ac.out, b);
      }
      default:
        return false;
    }
  }

  kernels::Epilogue build(std::size_t producer) {
    kernels::Epilogue ep;
    ep.layer = static_cast<std::uint32_t>(producer);
    ep.narrow = narrow_source(producer);
    const auto& l = fw.layers[producer];
    if (l.kind == LayerKind::kMaxPool || l.kind == LayerKind::kRelu ||
        l.kind == LayerKind::kFlatten) {
      ep.stages.push_back({Requant(frac(l.inputs[0]), l.quant.activation),
                           l.kind == LayerKind::kRelu, ep.layer, 1});
      ep.narrow =
          ep.narrow && int32_exact(ep.stages.back().rq, bound(l.inputs[0]));
    }
    std::size_t v = producer;
    while (readers[v].size() == 1 && fused[readers[v][0].layer]) {
      const std::size_t r = readers[v][0].layer;
      ep.stages.push_back({Requant(frac(v), fw.layers[r].quant.activation),
                           true, static_cast<std::uint32_t>(r), 1});
      ep.narrow = ep.narrow && int32_exact(ep.stages.back().rq, bound(v));
      v = r;
    }
    ep.common = static_cast<std::uint32_t>(ep.stages.size());
    std::vector<kernels::Stage> path;
    add_targets(ep, producer, v, path, 1, 0);
    return ep;
  }

  /// Sinks for value `x`, of which this write-out computes the channels
  /// [off, off + producer channels), each source row standing for `rep`
  /// rows of x, after the stages in `path`.
  void add_targets(kernels::Epilogue& ep, std::size_t producer, std::size_t x,
                   std::vector<kernels::Stage>& path, std::size_t rep,
                   std::size_t off) {
    bool slab = readers[x].empty() || x + 1 == fw.layers.size();
    for (const Reader& r : readers[x]) {
      const auto& y = fw.layers[r.layer];
      if (y.kind == LayerKind::kUpSample) {
        if (fw.layers[x].positions * y.factor != y.positions) {
          throw std::invalid_argument("QuantizedModel: UpSampling " + y.name +
                                      " does not have factor times its "
                                      "source's rows");
        }
        const bool pushed = push_stage(ep, path, x, r.layer, rep * y.factor);
        add_targets(ep, producer, r.layer, path, rep * y.factor, off);
        if (pushed) path.pop_back();
      } else if (y.kind == LayerKind::kConcat) {
        const std::size_t at =
            r.slot == 0 ? 0 : fw.layers[y.inputs[0]].out_channels;
        const bool pushed = push_stage(ep, path, x, r.layer, rep);
        add_targets(ep, producer, r.layer, path, rep, off + at);
        if (pushed) path.pop_back();
      } else {
        slab = true;
      }
    }
    if (!slab) return;
    kernels::Sink s;
    s.stage_begin = static_cast<std::uint32_t>(ep.stages.size());
    ep.stages.insert(ep.stages.end(), path.begin(), path.end());
    s.stage_end = static_cast<std::uint32_t>(ep.stages.size());
    // Stages on this path are counted here; a later sink sharing them
    // recomputes their values but must not count them again.
    for (auto& st : path) st.mult = 0;
    s.channel = off;
    s.stride = fw.layers[x].out_channels;
    s.rep = rep;
    ep.sinks.push_back(s);
    ep.narrow = ep.narrow && fits_i16(lanes.ranges[x]);
    sink_slab[producer].push_back(x);
  }
};

}  // namespace

QuantizedModel::QuantizedModel(FirmwareModel firmware)
    : fw_(std::move(firmware)), lanes_(prove_lanes(fw_)) {
  const std::size_t n = fw_.layers.size();
  plans_.resize(n);
  sigmoid_tables_.resize(n);
  std::size_t scratch = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& l = fw_.layers[i];
    const std::size_t values = l.positions * l.out_channels;
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
    // Step scratch: the quantized input, Sigmoid values, BatchNorm and MAC
    // accumulators, and a wide MAC layer's int64 copy of an int16 source.
    if (i == 0 || l.kind == LayerKind::kSigmoid ||
        l.kind == LayerKind::kBatchNorm) {
      scratch = std::max(scratch, round64(values * sizeof(std::int64_t)));
    }
    if (!is_mac(l.kind)) continue;
    const auto& src0 = fw_.layers[l.inputs[0]];
    const Accum ac(l.quant.activation,
                   frac_bits(l.quant.weight) + frac_bits(src0.quant.activation),
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
      const std::size_t in_values =
          fits_i16(lanes_.ranges[l.inputs[0]])
              ? round64(l.positions * l.in_channels * sizeof(std::int64_t))
              : 0;
      scratch = std::max(
          scratch, in_values + round64(values * sizeof(std::int64_t)));
      continue;
    }
    // Narrow lane: the prover certified weights/activations fit int16 and
    // every partial sum fits int32, so the downcasts below are exact.
    plan.out_pad = kernels::narrow_out_pad(l.out_channels);
    plan.wtr16 = kernels::narrow_weights(l.weights_raw.data(), l.out_channels,
                                         k, l.in_channels);
    plan.bias32.assign(plan.out_pad, 0);
    for (std::size_t o = 0; o < l.out_channels; ++o) {
      plan.bias32[o] = static_cast<std::int32_t>(ac.bias(l.bias_raw[o]));
    }
    scratch = std::max(
        scratch, round64(l.positions * plan.out_pad * sizeof(std::int32_t)));
  }
  scratch_bytes_ = scratch;

  // Write-outs, then the slabs their sinks fill: first the writers'
  // steps (bytes = 1 marks a slab some sink writes), then element type,
  // readers and lists, sizes, offsets, and last the sinks' byte offsets.
  WriteOutPlanner planner(fw_, lanes_);
  step_ = planner.step;
  epilogues_.resize(n);
  slabs_.assign(n, SlabPlan{});
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && !step_[i]) continue;
    epilogues_[i] = planner.build(i);
    for (const std::size_t x : planner.sink_slab[i]) {
      auto& s = slabs_[x];
      if (s.bytes == 0) s.first = i;  // producers run in index order
      s.last = i;
      s.bytes = 1;
    }
  }
  for (std::size_t x = 0; x < n; ++x) {
    auto& s = slabs_[x];
    if (s.bytes == 0) continue;
    s.elem_bytes =
        fits_i16(lanes_.ranges[x]) ? sizeof(std::int16_t) : sizeof(std::int64_t);
    for (const auto& r : planner.readers[x]) {
      if (!step_[r.layer]) continue;  // placement: reads the producer's values
      s.last = std::max(s.last, r.layer);
      s.lists = s.lists || (is_mac(fw_.layers[r.layer].kind) &&
                            plans_[r.layer].lane == Lane::kNarrow32);
    }
    if (x + 1 == n) s.last = kNone;
    if (s.lists && s.elem_bytes != sizeof(std::int16_t)) {
      throw std::logic_error("QuantizedModel: narrow layer reads an int64 slab");
    }
    s.bytes = slab_parts(fw_.layers[x], s.elem_bytes, s.lists).bytes;
  }
  act_bytes_ = plan_offsets(slabs_);
  std::vector<bool> listed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    auto& sinks = epilogues_[i].sinks;
    for (std::size_t j = 0; j < sinks.size(); ++j) {
      const std::size_t x = planner.sink_slab[i][j];
      const auto& slab = slabs_[x];
      const auto parts = slab_parts(fw_.layers[x], slab.elem_bytes, slab.lists);
      auto& s = sinks[j];
      s.values = slab.offset + parts.values;
      s.nz = slab.offset + parts.nz;
      s.nnz = slab.offset + parts.nnz;
      s.i16 = slab.elem_bytes == sizeof(std::int16_t);
      s.lists = slab.lists;
      s.reset = slab.lists && !listed[x];
      listed[x] = true;
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

QuantizedModel::Frame QuantizedModel::start_frame(
    util::ScratchArena& arena) const {
  const std::size_t n = fw_.layers.size();
  arena.require_words(words(act_bytes_) + words(scratch_bytes_) + 2 * n);
  Frame frame;
  frame.block = reinterpret_cast<std::byte*>(
      arena.alloc<std::int64_t>(words(act_bytes_)).data());
  auto counters = arena.alloc<std::size_t>(2 * n);
  std::fill(counters.begin(), counters.end(), std::size_t{0});
  frame.sat = counters.data();
  frame.ovf = counters.data() + n;
  return frame;
}

void QuantizedModel::write_input(const std::int64_t* raw,
                                 const Frame& frame) const {
  const auto& in = fw_.layers.front();
  kernels::write_out(kernels::Rows<std::int64_t>{raw, in.positions,
                                                 in.out_channels,
                                                 in.out_channels},
                     epilogues_.front(), frame.block, frame.sat, frame.ovf);
}

void QuantizedModel::execute(const Frame& frame, ForwardStats* stats) const {
  for (std::size_t i = 1; i < fw_.layers.size(); ++i) {
    if (step_[i]) run_step(i, frame);
  }
  if (!stats) return;
  for (std::size_t i = 0; i < fw_.layers.size(); ++i) {
    stats->saturations[i] += frame.sat[i];
    stats->overflows[i] += frame.ovf[i];
  }
}

std::int64_t QuantizedModel::output_word(const Frame& frame,
                                         std::size_t i) const {
  const auto& s = slabs_.back();
  const std::byte* at = frame.block + s.offset;
  return s.elem_bytes == sizeof(std::int16_t)
             ? reinterpret_cast<const std::int16_t*>(at)[i]
             : reinterpret_cast<const std::int64_t*>(at)[i];
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
  const Frame frame = start_frame(arena);
  {
    util::ArenaScope input_scope(arena);
    auto raw = arena.alloc<std::int64_t>(fw_.input_values);
    const auto in_fmt = fw_.input_spec.format(fixed::QuantMode::kRound);
    for (std::size_t i = 0; i < input.numel(); ++i) {
      raw[i] = in_fmt.quantize(input[i]);
    }
    write_input(raw.data(), frame);
  }
  execute(frame, stats);
  const auto& out_layer = fw_.layers.back();
  const auto out_fmt = fw_.output_spec.format();
  out.resize({out_layer.positions, out_layer.out_channels});
  for (std::size_t i = 0; i < fw_.output_values; ++i) {
    out[i] = static_cast<float>(out_fmt.to_double(output_word(frame, i)));
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
  const Frame frame = start_frame(arena);
  write_input(input_raw.data(), frame);
  execute(frame, stats);
  std::vector<std::int64_t> out(fw_.output_values);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = output_word(frame, i);
  return out;
}

namespace {

/// Call f with a slab's values as an int16 or int64 pointer.
template <typename F>
void with_slab(const QuantizedModel::SlabPlan& s, const std::byte* block,
               F&& f) {
  if (s.elem_bytes == sizeof(std::int16_t)) {
    f(reinterpret_cast<const std::int16_t*>(block + s.offset));
  } else {
    f(reinterpret_cast<const std::int64_t*>(block + s.offset));
  }
}

}  // namespace

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
  const Frame frame = start_frame(arena);
  write_input(input_raw.data(), frame);
  for (std::size_t i = 1; i < fw_.layers.size(); ++i) {
    if (!step_[i]) continue;  // computed inside its producer's write-out
    const auto& l = fw_.layers[i];
    if (!inputs.empty() && is_mac(l.kind)) {
      // Count the MAC layer's input rows now, while its source slab is
      // live, weighting a row by the taps that read it ('same' padding:
      // edge rows are read by fewer).
      with_slab(slabs_[l.inputs[0]], frame.block, [&](const auto* in0) {
        const auto k = static_cast<std::ptrdiff_t>(
            l.kind == LayerKind::kDense ? 1 : l.kernel);
        const auto pos = static_cast<std::ptrdiff_t>(l.positions);
        for (std::ptrdiff_t q = 0; q < pos; ++q) {
          const auto* row = in0 + static_cast<std::size_t>(q) * l.in_channels;
          std::uint64_t nonzero = 0;
          for (std::size_t c = 0; c < l.in_channels; ++c) {
            nonzero += static_cast<std::uint64_t>(row[c] != 0);
          }
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
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    run_step(i, frame);
    const auto t1 = std::chrono::steady_clock::now();
    layer_ns[i] += std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  std::vector<std::int64_t> out(fw_.output_values);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = output_word(frame, i);
  return out;
}

void QuantizedModel::run_step(std::size_t idx, const Frame& frame) const {
  const auto& l = fw_.layers[idx];
  const auto& src0 = fw_.layers[l.inputs[0]];
  const SlabPlan& in0 = slabs_[l.inputs[0]];
  const auto& ep = epilogues_[idx];
  const int in_frac = frac_bits(src0.quant.activation);
  const std::size_t n = l.positions * l.out_channels;
  auto& arena = util::ScratchArena::local();
  util::ArenaScope step_scope(arena);
  // Elementwise and pooling steps: the write-out reads the source slab.
  const auto write_source = [&](std::size_t pool) {
    with_slab(in0, frame.block, [&](const auto* x) {
      kernels::write_out(kernels::Rows<std::remove_cvref_t<decltype(*x)>>{
                             x, l.positions, l.out_channels, l.out_channels,
                             pool},
                         ep, frame.block, frame.sat, frame.ovf);
    });
  };

  switch (l.kind) {
    case LayerKind::kInput:
    case LayerKind::kUpSample:
    case LayerKind::kConcat:
      throw std::logic_error("run_step on a layer without a step");

    case LayerKind::kDense:
    case LayerKind::kConv1D: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      const auto& plan = plans_[idx];
      const std::size_t k = l.kind == LayerKind::kDense ? 1 : l.kernel;
      if (plan.lane == Lane::kNarrow32) {
        // Narrow lane (prover-certified): the source slab is int16 with its
        // nonzero lists, written by its producer; accumulate only the listed
        // terms in int32 (an unlisted term is (0 * w) >> s = 0) and write
        // out through the shared Accum — the int32 sums equal the exact
        // int64 sums by the proof, so outputs and stats counters are
        // bit-identical to the wide path.
        const auto parts = slab_parts(src0, in0.elem_bytes, true);
        const std::byte* base = frame.block + in0.offset;
        auto acc32 = arena.alloc<std::int32_t>(l.positions * plan.out_pad);
        kernels::conv1d_acc_i16(
            reinterpret_cast<const std::int16_t*>(base + parts.values),
            reinterpret_cast<const std::uint16_t*>(base + parts.nz),
            reinterpret_cast<const std::uint16_t*>(base + parts.nnz),
            plan.wtr16.data(), plan.bias32.data(), acc32.data(), l.positions,
            l.in_channels, l.out_channels, plan.out_pad, k, ac.prod_shift);
        kernels::write_out(
            kernels::Rows<std::int32_t>{acc32.data(), l.positions,
                                        l.out_channels, plan.out_pad, 1, &ac},
            ep, frame.block, frame.sat, frame.ovf);
        break;
      }
      // Wide lane: the int64 kernel reads int64 rows, so an int16 source is
      // widened first.
      const std::size_t in_n = l.positions * l.in_channels;
      const std::int64_t* x64 = nullptr;
      with_slab(in0, frame.block, [&](const auto* x) {
        if constexpr (std::is_same_v<decltype(x), const std::int64_t*>) {
          x64 = x;
        } else {
          auto wide = arena.alloc<std::int64_t>(in_n);
          std::copy(x, x + in_n, wide.begin());
          x64 = wide.data();
        }
      });
      auto acc = arena.alloc<std::int64_t>(n);
      kernels::conv1d_acc(x64, plan.wtr.data(), plan.bias_acc.data(),
                          acc.data(), l.positions, l.in_channels,
                          l.out_channels, k, ac.prod_shift);
      kernels::write_out(
          kernels::Rows<std::int64_t>{acc.data(), l.positions, l.out_channels,
                                      l.out_channels, 1, &ac},
          ep, frame.block, frame.sat, frame.ovf);
      break;
    }

    case LayerKind::kBatchNorm: {
      const Accum ac(l.quant.activation, frac_bits(l.quant.weight) + in_frac,
                     l.bias_frac_bits, fw_.config.quant.accum_guard_bits);
      auto acc = arena.alloc<std::int64_t>(n);
      with_slab(in0, frame.block, [&](const auto* x) {
        for (std::size_t p = 0; p < l.positions; ++p) {
          for (std::size_t c = 0; c < l.out_channels; ++c) {
            const std::size_t j = p * l.out_channels + c;
            acc[j] = ac.term(l.weights_raw[c] * std::int64_t{x[j]}) +
                     ac.bias(l.bias_raw[c]);
          }
        }
      });
      kernels::write_out(
          kernels::Rows<std::int64_t>{acc.data(), l.positions, l.out_channels,
                                      l.out_channels, 1, &ac},
          ep, frame.block, frame.sat, frame.ovf);
      break;
    }

    case LayerKind::kMaxPool:
      write_source(l.factor);
      break;

    case LayerKind::kRelu:
    case LayerKind::kFlatten:
      write_source(1);
      break;

    case LayerKind::kSigmoid: {
      const auto& table = sigmoid_tables_[idx];
      const double scale = std::ldexp(1.0, -in_frac);
      const double buckets_per_unit =
          static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidRange);
      auto out = arena.alloc<std::int64_t>(n);
      with_slab(in0, frame.block, [&](const auto* x) {
        for (std::size_t i = 0; i < n; ++i) {
          const double v = static_cast<double>(x[i]) * scale;
          auto b = static_cast<std::ptrdiff_t>(
              std::floor((v + kSigmoidRange) * buckets_per_unit));
          b = std::clamp<std::ptrdiff_t>(
              b, 0, static_cast<std::ptrdiff_t>(kSigmoidTableSize) - 1);
          out[i] = table[static_cast<std::size_t>(b)];
        }
      });
      kernels::write_out(
          kernels::Rows<std::int64_t>{out.data(), l.positions, l.out_channels,
                                      l.out_channels},
          ep, frame.block, frame.sat, frame.ovf);
      break;
    }
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
