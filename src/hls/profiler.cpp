#include "hls/profiler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <span>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace reads::hls {

int Profile::int_bits_for_coverage(const std::string& node,
                                   double coverage) const {
  const auto it = act_int_bits_histogram.find(node);
  if (it == act_int_bits_histogram.end()) {
    throw std::invalid_argument("Profile: no histogram for node '" + node +
                                "'");
  }
  const auto& hist = it->second;
  std::uint64_t total = 0;
  for (auto c : hist) total += c;
  if (total == 0) return 1;
  const auto needed = static_cast<std::uint64_t>(
      std::ceil(coverage * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 1; b < hist.size(); ++b) {
    seen += hist[b];
    if (seen >= needed) return static_cast<int>(b);
  }
  return static_cast<int>(hist.size() - 1);
}

std::size_t act_int_bits_bucket(float v) noexcept {
  const auto biased = (std::bit_cast<std::uint32_t>(v) >> 23) & 0xffu;
  if (biased == 0xffu) {  // NaN and inf keep int_bits_for's answer
    return static_cast<std::size_t>(std::clamp(
        int_bits_for(std::fabs(static_cast<double>(v))), 1, kMaxActIntBits));
  }
  // floor(log2 |v|) + 2 for a normal v; zeros and subnormals land on 1.
  return static_cast<std::size_t>(
      std::clamp(static_cast<int>(biased) - 125, 1, kMaxActIntBits));
}

namespace {

using ActHistogram = std::array<std::uint64_t, kMaxActIntBits + 1>;

// Folds |v| of every value into a node's running max and bucket counts.
// The hot loop only counts biased exponents (two interleaved rows and
// maxima: neighbouring activations usually share an exponent, and one row
// would serialize their increments on store-to-load forwarding); the rows
// fold into buckets once per call. Max and counts are order-independent,
// so the result equals a per-value sweep.
void accumulate(std::span<const float> values, float& max_abs,
                ActHistogram& hist) {
  std::array<std::array<std::uint64_t, 256>, 2> rows{};
  float m[2] = {max_abs, max_abs};
  const auto fold = [&](std::size_t lane, float v) {
    const float a = std::fabs(v);
    m[lane] = std::max(m[lane], a);
    ++rows[lane][std::bit_cast<std::uint32_t>(a) >> 23];
  };
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    fold(0, values[i]);
    fold(1, values[i + 1]);
  }
  if (i < n) fold(0, values[i]);
  max_abs = std::max({max_abs, m[0], m[1]});
  for (std::uint32_t e = 0; e < 255; ++e) {
    // 2^(e - 127) (0 for e == 0) stands for every float of exponent e.
    hist[act_int_bits_bucket(std::bit_cast<float>(e << 23))] +=
        rows[0][e] + rows[1][e];
  }
  if (rows[0][255] + rows[1][255] != 0) {  // NaN or inf: bucket by value
    for (const float v : values) {
      if (!std::isfinite(v)) ++hist[act_int_bits_bucket(v)];
    }
  }
}

}  // namespace

Profile profile_model(const nn::Model& model,
                      const std::vector<tensor::Tensor>& calibration_inputs) {
  if (calibration_inputs.empty()) {
    throw std::invalid_argument("profile_model: no calibration inputs");
  }
  Profile prof;
  prof.calibration_frames = calibration_inputs.size();
  for (const auto& node : model.nodes()) {
    prof.max_activation[node.name] = 0.0;
    prof.act_int_bits_histogram[node.name].fill(0);
    if (node.layer) {
      const auto params = node.layer->params();
      if (!params.empty()) {
        prof.max_weight[node.name] = params[0]->max_abs();
        prof.max_bias[node.name] =
            params.size() > 1 ? params[1]->max_abs() : 0.0;
      }
    }
  }
  // Shard the calibration frames across the pool, one shard per party
  // (the workers and the calling thread); each shard accumulates into
  // node-indexed locals (reusing one Activations) and the max/histogram
  // merges commute, so the result equals the sequential sweep.
  const std::size_t n_nodes = model.nodes().size();
  const std::size_t n_frames = calibration_inputs.size();
  const std::size_t shards =
      std::min(n_frames, util::ThreadPool::global().worker_count() + 1);
  std::mutex mutex;
  util::parallel_for(std::size_t{0}, shards, [&](std::size_t s) {
    std::vector<float> local_max(n_nodes, 0.0f);
    std::vector<ActHistogram> local_hist(n_nodes, ActHistogram{});
    nn::Activations acts;
    const std::size_t lo = s * n_frames / shards;
    const std::size_t hi = (s + 1) * n_frames / shards;
    for (std::size_t f = lo; f < hi; ++f) {
      model.forward_all_into(calibration_inputs[f], acts);
      for (std::size_t i = 0; i < n_nodes; ++i) {
        accumulate(acts.values[i].flat(), local_max[i], local_hist[i]);
      }
    }
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const auto& name = model.nodes()[i].name;
      auto& slot = prof.max_activation[name];
      slot = std::max(slot, static_cast<double>(local_max[i]));
      auto& hist = prof.act_int_bits_histogram[name];
      for (std::size_t b = 0; b < hist.size(); ++b) hist[b] += local_hist[i][b];
    }
  });
  return prof;
}

QuantConfig layer_based_config(const nn::Model& model, const Profile& profile,
                               int total_bits, int extra_int_bits,
                               double coverage) {
  if (coverage <= 0.0 || coverage > 1.0) {
    throw std::invalid_argument("layer_based_config: coverage out of (0, 1]");
  }
  QuantConfig cfg;
  cfg.strategy = PrecisionStrategy::kLayerBased;
  cfg.default_spec = FixedSpec{total_bits, std::min(total_bits, 7)};
  for (const auto& node : model.nodes()) {
    LayerQuant lq;
    const auto clamp_bits = [total_bits](int bits) {
      return std::clamp(bits, 1, total_bits);
    };
    int act_bits = 0;
    if (coverage >= 1.0) {
      const auto act_it = profile.max_activation.find(node.name);
      const double max_act =
          act_it != profile.max_activation.end() ? act_it->second : 1.0;
      act_bits = int_bits_for(max_act);
    } else {
      act_bits = profile.int_bits_for_coverage(node.name, coverage);
    }
    lq.activation = FixedSpec{total_bits, clamp_bits(act_bits + extra_int_bits)};
    const auto w_it = profile.max_weight.find(node.name);
    if (w_it != profile.max_weight.end()) {
      lq.weight = FixedSpec{total_bits, clamp_bits(int_bits_for(w_it->second))};
      const auto b_it = profile.max_bias.find(node.name);
      const double max_b = b_it != profile.max_bias.end() ? b_it->second : 0.0;
      lq.bias = FixedSpec{total_bits, clamp_bits(int_bits_for(max_b))};
    } else {
      lq.weight = lq.activation;
      lq.bias = lq.activation;
    }
    cfg.per_layer[node.name] = lq;
  }
  return cfg;
}

}  // namespace reads::hls
