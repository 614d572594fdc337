#include "autotune/tuner.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace reads::autotune {

namespace {

constexpr std::size_t kMaxRounds = 64;
/// Stop after this many consecutive rounds with no feasible proposal.
constexpr std::size_t kMaxDryRounds = 3;

Objectives objectives_of(const Validation& v) {
  Objectives o;
  o.quant_err = v.quant_err();
  o.latency_ms = v.cheap.latency_ms;
  o.aluts = static_cast<double>(v.cheap.aluts);
  o.dsps = static_cast<double>(v.cheap.dsps);
  o.ram_blocks = static_cast<double>(v.cheap.ram_blocks);
  return o;
}

}  // namespace

bool dominates_baseline(const Validation& candidate,
                        const Validation& baseline) noexcept {
  if (!candidate.cheap.feasible()) return false;
  if (candidate.accuracy_mi < baseline.accuracy_mi ||
      candidate.accuracy_rr < baseline.accuracy_rr) {
    return false;
  }
  const auto& c = candidate.cheap;
  const auto& b = baseline.cheap;
  const bool latency_better = c.latency_ms < b.latency_ms;
  const bool resources_leq =
      c.aluts <= b.aluts && c.dsps <= b.dsps && c.ram_blocks <= b.ram_blocks;
  const bool resources_better =
      resources_leq &&
      (c.aluts < b.aluts || c.dsps < b.dsps || c.ram_blocks < b.ram_blocks);
  return latency_better || resources_better;
}

Autotuner::Autotuner(const SearchSpace& space, const Evaluator& evaluator,
                     TuneConfig config)
    : space_(space), evaluator_(evaluator), cfg_(config) {
  if (!evaluator_.can_validate()) {
    throw std::invalid_argument("Autotuner: evaluator cannot validate");
  }
  if (cfg_.budget < 2) {
    throw std::invalid_argument("Autotuner: budget must cover baseline + 1");
  }
}

TuneOutcome Autotuner::run() {
  TuneOutcome out;
  ParetoFront front;
  Surrogate surrogate(cfg_.surrogate);
  util::Xoshiro256 rng(cfg_.seed);
  std::set<std::string> seen;
  std::vector<std::pair<double, double>> scored;

  // Validate one candidate: predict first (so the scored pair is honest —
  // the surrogate never sees the answer before predicting), then measure,
  // then train.
  const auto validate = [&](const Candidate& c) -> std::optional<std::size_t> {
    const std::string key = c.key();
    if (!seen.insert(key).second) {
      ++out.duplicates_skipped;
      return std::nullopt;
    }
    const FeatureVec feats = space_.features(c);
    const auto predicted = surrogate.predict(feats);
    EvaluatedCandidate ev;
    ev.candidate = c;
    ev.result = evaluator_.validate(c);
    ev.index = out.evaluated.size();
    if (predicted) {
      ev.predicted = *predicted;
      ev.had_prediction = true;
      scored.emplace_back(*predicted, ev.result.quant_err());
    }
    surrogate.observe(feats, ev.result.quant_err());
    front.insert({key, objectives_of(ev.result), ev.index});
    out.evaluated.push_back(std::move(ev));
    return out.evaluated.size() - 1;
  };
  const auto budget_left = [&] { return out.evaluated.size() < cfg_.budget; };

  // 1. Baseline (the layer_based_config seed point).
  const Candidate baseline = space_.baseline_candidate();
  const auto base_idx = validate(baseline);
  if (!base_idx) {
    throw std::logic_error("Autotuner: baseline validation failed");
  }
  out.baseline_index = *base_idx;
  // Copied, not referenced: out.evaluated reallocates as the search runs.
  const Validation base_v = out.evaluated[out.baseline_index].result;

  // 2a. Scripted width / headroom / reuse-scaling seeds (cheap-screened).
  std::vector<Candidate> seeds;
  for (const int w : {10, 12, 14, 18}) {
    Candidate c = baseline;
    for (auto& [name, gene] : c.genes) gene.width = w;
    seeds.push_back(space_.clamped(std::move(c)));
  }
  for (const int delta : {-1, 1}) {
    Candidate c = baseline;
    for (auto& [name, gene] : c.genes) gene.int_delta = delta;
    seeds.push_back(space_.clamped(std::move(c)));
  }
  for (const bool up : {true, false}) {
    Candidate c = baseline;
    for (auto& [name, gene] : c.genes) {
      gene.reuse = up ? gene.reuse * 2 : std::max<std::size_t>(1, gene.reuse / 2);
    }
    seeds.push_back(space_.clamped(std::move(c)));
  }
  for (const auto& c : seeds) {
    if (!budget_left()) break;
    if (seen.contains(c.key())) {
      ++out.duplicates_skipped;
      continue;
    }
    if (!evaluator_.cheap(c).feasible()) {
      ++out.infeasible_skipped;
      continue;
    }
    validate(c);
  }

  // 2b. Greedy reuse descent. Reuse does not change quantized numerics, so
  // each accepted step keeps the baseline's accuracy bit-for-bit at
  // strictly fewer predicted cycles — a guaranteed dominance chain.
  Candidate cursor = baseline;
  Validation cursor_v = base_v;
  for (std::size_t step = 0;
       step < cfg_.greedy_descent_steps && budget_left(); ++step) {
    // MAC layers ordered by their cycle share of the cursor point.
    std::vector<std::pair<std::size_t, std::string>> hot;
    for (const auto& lc : cursor_v.cheap.layer_cycles) {
      const auto it = cursor.genes.find(lc.name);
      if (it != cursor.genes.end() && it->second.reuse > 1) {
        hot.emplace_back(lc.cycles, lc.name);
      }
    }
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    bool advanced = false;
    for (const auto& [cycles, name] : hot) {
      Candidate next = cursor;
      next.genes[name].reuse = std::max<std::size_t>(
          1, next.genes[name].reuse / 2);
      next = space_.clamped(std::move(next));
      if (seen.contains(next.key())) continue;
      const CheapEval screen = evaluator_.cheap(next);
      if (!screen.feasible() ||
          screen.total_cycles >= cursor_v.cheap.total_cycles) {
        ++out.infeasible_skipped;
        continue;
      }
      const auto idx = validate(next);
      if (!idx) continue;
      cursor = std::move(next);
      cursor_v = out.evaluated[*idx].result;
      advanced = true;
      break;
    }
    if (!advanced) break;
  }

  // 3. Surrogate-guided rounds.
  std::size_t dry = 0;
  while (budget_left() && out.rounds < kMaxRounds && dry < kMaxDryRounds) {
    ++out.rounds;
    // Parents: current Pareto-front members (the baseline starts there and
    // front points are exactly the interesting trade-offs).
    const auto& parents = front.points();
    if (parents.empty()) break;

    std::vector<Candidate> fresh;
    std::set<std::string> round_keys;
    for (std::size_t i = 0; i < cfg_.proposals_per_round; ++i) {
      ++out.proposals;
      Candidate child;
      if (parents.size() >= 2 && rng.bernoulli(0.25)) {
        const std::size_t a = rng.uniform_int(parents.size());
        std::size_t b = rng.uniform_int(parents.size() - 1);
        if (b >= a) ++b;
        child = space_.crossover(out.evaluated[parents[a].eval_index].candidate,
                                 out.evaluated[parents[b].eval_index].candidate,
                                 rng);
      } else {
        const std::size_t p = rng.uniform_int(parents.size());
        child = space_.mutate(out.evaluated[parents[p].eval_index].candidate,
                              rng);
      }
      const std::string key = child.key();
      if (seen.contains(key) || !round_keys.insert(key).second) {
        ++out.duplicates_skipped;
        continue;
      }
      fresh.push_back(std::move(child));
    }

    // Cheap screen, then surrogate ranking.
    struct Survivor {
      Candidate candidate;
      double predicted = 0.0;
      bool has_prediction = false;
      std::size_t order = 0;
    };
    std::vector<Survivor> survivors;
    for (auto& c : fresh) {
      if (!evaluator_.cheap(c).feasible()) {
        ++out.infeasible_skipped;
        continue;
      }
      Survivor s;
      s.order = survivors.size();
      if (const auto p = surrogate.predict(space_.features(c))) {
        s.predicted = *p;
        s.has_prediction = true;
      }
      s.candidate = std::move(c);
      survivors.push_back(std::move(s));
    }
    if (survivors.empty()) {
      ++dry;
      continue;
    }
    std::stable_sort(survivors.begin(), survivors.end(),
                     [](const Survivor& a, const Survivor& b) {
                       if (a.has_prediction != b.has_prediction) {
                         return a.has_prediction;
                       }
                       if (!a.has_prediction) return a.order < b.order;
                       return a.predicted < b.predicted;
                     });
    const std::size_t chosen = std::min(cfg_.shortlist, survivors.size());
    std::size_t validated_this_round = 0;
    for (std::size_t i = 0; i < chosen && budget_left(); ++i) {
      if (validate(survivors[i].candidate)) ++validated_this_round;
    }
    // Off-policy explorers from the unchosen tail keep the scored pairs an
    // honest sample instead of only "predicted best" points.
    for (std::size_t e = 0;
         e < cfg_.explorers && chosen + e < survivors.size() && budget_left();
         ++e) {
      const std::size_t tail = survivors.size() - chosen;
      const std::size_t pick = chosen + rng.uniform_int(tail);
      if (validate(survivors[pick].candidate)) ++validated_this_round;
    }
    dry = validated_this_round == 0 ? dry + 1 : 0;
  }

  // Surrogate-quality report and final selection.
  out.spearman_rank = spearman(scored);
  out.scored_pairs = scored.size();
  out.scored = std::move(scored);
  for (const auto& ev : out.evaluated) {
    if (ev.index == out.baseline_index) continue;
    if (!dominates_baseline(ev.result, base_v)) continue;
    if (!out.selected_index) {
      out.selected_index = ev.index;
      continue;
    }
    const auto& best = out.evaluated[*out.selected_index];
    const auto& c = ev.result.cheap;
    const auto& s = best.result.cheap;
    const bool better =
        c.latency_ms != s.latency_ms ? c.latency_ms < s.latency_ms
        : c.aluts != s.aluts         ? c.aluts < s.aluts
        : ev.candidate.key() < best.candidate.key();
    if (better) out.selected_index = ev.index;
  }
  out.selected_dominates = out.selected_index.has_value();
  out.front = front.points();
  return out;
}

}  // namespace reads::autotune
