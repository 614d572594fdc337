// Surrogate-guided search over the per-layer <W, I, reuse> space.
//
// The loop (deterministic under a fixed seed, regardless of --threads):
//
//   1. validate the layer_based_config baseline (the seed point);
//   2. scripted seeds: uniform-width variants, global reuse scalings,
//      integer-headroom shifts, and a greedy reuse *descent* — repeatedly
//      halve the reuse of the most cycle-expensive MAC layer while the
//      skeleton still fits the device and the deadline. Reuse does not
//      change quantized numerics, so each descent step keeps the baseline's
//      exact accuracy at strictly lower predicted latency — guaranteeing
//      points that dominate the baseline;
//   3. search rounds until the validation budget is spent: propose
//      mutations/crossovers of Pareto-front members, discard duplicates,
//      cheap-screen infeasible points (device budget / 3 ms deadline),
//      rank survivors with the ridge surrogate, validate a shortlist of
//      the predicted-best plus a random explorer, train the surrogate on
//      every measured cost, and fold results into the Pareto front.
//
// The outcome carries the full evaluated history, the validated Pareto
// front, the (predicted, measured) pairs' Spearman rank correlation — the
// surrogate-quality number bench_autotune gates — and the selected point:
// the lowest-latency candidate that dominates the baseline (>= accuracy on
// both channels AND lower latency or no-worse/strictly-better resources).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "autotune/evaluator.hpp"
#include "autotune/pareto.hpp"
#include "autotune/space.hpp"
#include "autotune/surrogate.hpp"

namespace reads::autotune {

struct TuneConfig {
  /// Total validation budget, including the baseline and scripted seeds.
  std::size_t budget = 64;
  std::size_t proposals_per_round = 48;
  /// Predicted-best candidates validated per round...
  std::size_t shortlist = 6;
  /// ...plus this many randomly-drawn feasible survivors (keeps the
  /// surrogate's training set off-policy enough to measure honestly).
  std::size_t explorers = 1;
  std::size_t greedy_descent_steps = 4;
  std::uint64_t seed = 1;
  SurrogateConfig surrogate{};
};

struct EvaluatedCandidate {
  Candidate candidate;
  Validation result;
  double predicted = 0.0;    ///< surrogate's cost prediction, if it had one
  bool had_prediction = false;
  std::size_t index = 0;     ///< position in TuneOutcome::evaluated
};

struct TuneOutcome {
  std::vector<EvaluatedCandidate> evaluated;
  std::vector<ParetoPoint> front;  ///< validated, non-dominated
  std::size_t baseline_index = 0;
  std::optional<std::size_t> selected_index;
  bool selected_dominates = false;
  std::size_t proposals = 0;
  std::size_t infeasible_skipped = 0;
  std::size_t duplicates_skipped = 0;
  std::size_t rounds = 0;
  /// Spearman rank correlation of (predicted, measured) cost over the
  /// validated candidates the surrogate scored before seeing.
  double spearman_rank = 0.0;
  std::size_t scored_pairs = 0;
  /// The raw (predicted, measured) pairs behind spearman_rank.
  std::vector<std::pair<double, double>> scored;

  const EvaluatedCandidate& baseline() const {
    return evaluated[baseline_index];
  }
  const EvaluatedCandidate* selected() const {
    return selected_index ? &evaluated[*selected_index] : nullptr;
  }
};

/// ISSUE-10 dominance gate: candidate accuracy >= baseline on both
/// channels, candidate feasible, and strictly lower predicted latency OR
/// resources no worse on every axis and strictly better on one.
bool dominates_baseline(const Validation& candidate,
                        const Validation& baseline) noexcept;

class Autotuner {
 public:
  /// `evaluator` must be a full (validating) evaluator over `space`.
  Autotuner(const SearchSpace& space, const Evaluator& evaluator,
            TuneConfig config = {});

  TuneOutcome run();

  const TuneConfig& config() const noexcept { return cfg_; }

 private:
  const SearchSpace& space_;
  const Evaluator& evaluator_;
  TuneConfig cfg_;
};

}  // namespace reads::autotune
