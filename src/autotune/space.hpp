// Search space for the precision/reuse autotuner.
//
// A Candidate assigns one gene per *tunable* layer (Dense / Conv1D /
// folded BatchNorm — anything with multipliers and weights): the total
// fixed-point width W, an integer-bit delta relative to the profiled
// layer_based_config seed allocation, and the layer's reuse factor.
// Non-MAC layers (ReLU, pool, upsample, concat, sigmoid) inherit the gene
// of the nearest MAC ancestor so a group's activation path keeps one
// format — exactly the granularity layer_based_config tunes at.
//
// The space is anchored on a *baseline firmware* compiled from the seed
// config: baseline_candidate() materializes byte-identical to that config
// (tested), and skeleton() produces a FirmwareModel whose quant/reuse
// fields reflect a candidate without re-quantizing weights — the
// ResourceModel and LatencyModel read only geometry + specs + reuse, so
// cheap screening is exact while costing microseconds, not a compile.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "autotune/surrogate.hpp"
#include "hls/firmware.hpp"
#include "util/rng.hpp"

namespace reads::autotune {

/// One tunable layer's genome: total width, integer-bit delta applied on
/// top of the seed config's profiled allocation, and reuse factor.
struct LayerGene {
  int width = 16;
  int int_delta = 0;
  std::size_t reuse = 32;

  friend bool operator==(const LayerGene&, const LayerGene&) = default;
};

struct Candidate {
  std::map<std::string, LayerGene> genes;  ///< keyed by tunable layer name

  /// Canonical string key (deterministic: map order). Used for dedup and
  /// as the Pareto point identity.
  std::string key() const;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

struct SearchBounds {
  int min_width = 8;
  int max_width = 18;
  int min_int_delta = -1;
  int max_int_delta = 2;
  /// Reuse ladder mutations walk; candidates are additionally clamped to
  /// [1, mults_per_output] per layer at materialization, like hls::compile.
  std::vector<std::size_t> reuse_steps = {1,  2,  4,   8,   16,
                                          32, 64, 128, 256, 512};
};

class SearchSpace {
 public:
  /// `baseline` must be a compiled firmware (the layer_based_config seed
  /// point); it provides topology, geometry, seed quant specs, and seed
  /// reuse. Throws std::invalid_argument when it has no tunable layers.
  explicit SearchSpace(hls::FirmwareModel baseline, SearchBounds bounds = {});

  const SearchBounds& bounds() const noexcept { return bounds_; }
  const std::vector<std::string>& tunable_layers() const noexcept {
    return tunable_;
  }

  /// The seed point: genes read back from the baseline firmware. Its
  /// materialization reproduces the baseline HlsConfig byte-for-byte.
  Candidate baseline_candidate() const;

  /// Clamp genes into bounds and fill any missing tunable layer from the
  /// baseline. Throws on a gene naming an unknown layer.
  Candidate clamped(Candidate candidate) const;

  /// Lower a candidate to a full HlsConfig (per-layer QuantConfig entries
  /// for every grouped layer + per-layer reuse overrides) ready for
  /// hls::compile.
  hls::HlsConfig materialize(const Candidate& candidate) const;

  /// Baseline firmware with quant specs, reuse, and instantiated_mults
  /// rewritten for `candidate`. weights_raw is left at the baseline's
  /// values (stale): the resource and latency models never read weights,
  /// so this is exact for cheap screening — do NOT execute a skeleton.
  hls::FirmwareModel skeleton(const Candidate& candidate) const;

  /// Hand-engineered features for the accuracy surrogate (rule4ml-style):
  /// MACs-weighted means and minima of fractional bits, quantization-step
  /// magnitudes 2^-frac, and integer-headroom terms. Layout documented in
  /// DESIGN.md §12.
  FeatureVec features(const Candidate& candidate) const;

  /// 1–3 gene tweaks (width +-1/2, int_delta +-1, reuse one ladder step),
  /// clamped; retries until the key changes (bounded attempts).
  Candidate mutate(const Candidate& parent, util::Xoshiro256& rng) const;

  /// Uniform per-gene crossover of two candidates, clamped.
  Candidate crossover(const Candidate& a, const Candidate& b,
                      util::Xoshiro256& rng) const;

  /// mults_per_output of a tunable layer (the hard reuse ceiling).
  std::size_t max_reuse(const std::string& layer) const;

 private:
  const hls::FirmwareLayer& tunable_layer(std::size_t ordinal) const {
    return base_.layers[tunable_index_[ordinal]];
  }
  LayerGene clamp_gene(std::size_t ordinal, LayerGene gene) const;

  hls::FirmwareModel base_;
  SearchBounds bounds_;
  std::vector<std::string> tunable_;          ///< tunable layer names
  std::vector<std::size_t> tunable_index_;    ///< -> base_.layers index
  std::map<std::string, std::size_t> ordinal_;  ///< name -> tunable ordinal
  /// Per base_.layers entry: owning tunable ordinal, or -1 (input / no MAC
  /// ancestor — keeps its seed spec untouched).
  std::vector<int> group_;
};

}  // namespace reads::autotune
