#include "lifecycle/requalify.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "autotune/evaluator.hpp"
#include "autotune/space.hpp"
#include "autotune/tuner.hpp"
#include "hls/accuracy.hpp"
#include "hls/profiler.hpp"
#include "hls/resource.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/standardize.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace reads::lifecycle {

namespace {

/// Mean per-element squared error of `model` over (standardized input,
/// target) pairs, averaged across frames.
double holdout_mse(const nn::Model& model,
                   const std::vector<tensor::Tensor>& inputs,
                   const std::vector<const tensor::Tensor*>& targets) {
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto pred = model.forward(inputs[i]);
    const auto& t = *targets[i];
    double se = 0.0;
    for (std::size_t j = 0; j < pred.numel(); ++j) {
      const double d = static_cast<double>(pred[j]) -
                       static_cast<double>(t[j]);
      se += d * d;
    }
    total += se / static_cast<double>(pred.numel());
  }
  return total / static_cast<double>(inputs.size());
}

}  // namespace

Requalifier::Requalifier(RequalifyConfig config, ModelFactory factory)
    : cfg_(std::move(config)), factory_(std::move(factory)) {
  if (!factory_) {
    throw std::invalid_argument("Requalifier: null model factory");
  }
  if (cfg_.holdout_fraction <= 0.0 || cfg_.holdout_fraction >= 1.0) {
    throw std::invalid_argument(
        "Requalifier: holdout_fraction must be in (0, 1)");
  }
  worker_ = std::thread([this] { worker_loop(); });
}

Requalifier::~Requalifier() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool Requalifier::submit(RequalifyRequest request,
                         std::function<void(RequalifyResult)> done) {
  std::lock_guard lock(mutex_);
  if (job_ || busy_.load(std::memory_order_relaxed)) return false;
  job_.emplace(std::move(request));
  done_ = std::move(done);
  busy_.store(true, std::memory_order_release);
  cv_.notify_one();
  return true;
}

void Requalifier::worker_loop() {
  for (;;) {
    RequalifyRequest request;
    std::function<void(RequalifyResult)> done;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || job_.has_value(); });
      if (stop_) return;
      request = std::move(*job_);
      job_.reset();
      done = std::move(done_);
      done_ = nullptr;
    }
    RequalifyResult result;
    try {
      result = run(std::move(request));
    } catch (const std::exception& e) {
      result.qualified = false;
      result.report.reason = std::string("requalification error: ") + e.what();
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    busy_.store(false, std::memory_order_release);
    if (done) done(std::move(result));
  }
}

RequalifyResult Requalifier::run(RequalifyRequest request) const {
  if (request.frames.size() < 8) {
    throw std::invalid_argument(
        "Requalifier::run: need at least 8 recent frames");
  }

  const std::size_t holdout_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(cfg_.holdout_fraction *
                          static_cast<double>(request.frames.size()))));
  const std::size_t train_count = request.frames.size() - holdout_count;
  if (train_count < 4) {
    throw std::invalid_argument(
        "Requalifier::run: holdout leaves too few training frames");
  }

  // 1. Refit the standardizer on the training slice's raw readings.
  std::vector<tensor::Tensor> train_raw;
  train_raw.reserve(train_count);
  for (std::size_t i = 0; i < train_count; ++i) {
    train_raw.push_back(request.frames[i].raw);
  }
  train::Standardizer standardizer;
  standardizer.fit_global(train_raw);

  // 2. Warm-start the candidate and train on the recent frames.
  nn::Model candidate = factory_();
  if (request.incumbent) {
    nn::copy_weights(request.incumbent->model, candidate);
  } else {
    nn::init_he_uniform(candidate,
                        util::derive_seed(request.seed, /*purpose=*/0x11));
  }
  train::Dataset data;
  for (std::size_t i = 0; i < train_count; ++i) {
    data.add(standardizer.transform(request.frames[i].raw),
             request.frames[i].target);
  }
  train::MseLoss loss;
  train::Adam adam(cfg_.learning_rate);
  train::Trainer trainer(candidate, loss, adam);
  train::TrainConfig tc;
  tc.epochs = cfg_.epochs;
  tc.batch_size = cfg_.batch_size;
  tc.shuffle_seed = util::derive_seed(request.seed, /*purpose=*/0x12);
  trainer.fit(std::move(data), tc);

  if (request.mutate) request.mutate(candidate);

  // 3/4. Qualify on the held-out (newest) frames: float-vs-truth MSE for
  // candidate and incumbent, each under its own standardizer, and the
  // quantized-vs-float accuracy of the candidate's lowered firmware.
  std::vector<tensor::Tensor> holdout_cand;
  std::vector<tensor::Tensor> holdout_incumbent;
  std::vector<const tensor::Tensor*> holdout_targets;
  holdout_cand.reserve(holdout_count);
  holdout_targets.reserve(holdout_count);
  for (std::size_t i = train_count; i < request.frames.size(); ++i) {
    holdout_cand.push_back(standardizer.transform(request.frames[i].raw));
    if (request.incumbent) {
      holdout_incumbent.push_back(
          request.incumbent->standardizer.transform(request.frames[i].raw));
    }
    holdout_targets.push_back(&request.frames[i].target);
  }

  RequalifyResult result;
  auto& report = result.report;
  report.holdout_frames = holdout_count;
  report.holdout_mse = holdout_mse(candidate, holdout_cand, holdout_targets);
  if (request.incumbent) {
    report.incumbent_holdout_mse = holdout_mse(
        request.incumbent->model, holdout_incumbent, holdout_targets);
  }

  const auto profile = hls::profile_model(candidate, holdout_cand);
  hls::HlsConfig hls_cfg;
  hls_cfg.quant = hls::layer_based_config(candidate, profile, cfg_.total_bits);
  hls_cfg.reuse = cfg_.reuse;
  hls_cfg.clock_mhz = cfg_.clock_mhz;

  // Opt-in autotune stage: search per-layer <W, I, reuse> from the
  // layer_based_config seed; deploy the selected plan only when it
  // dominates the seed (>= accuracy, lower latency or resources). The
  // tuner seed derives from the request so repeated requalifications
  // explore independently yet reproducibly.
  if (cfg_.autotune) {
    autotune::SearchSpace space(hls::compile(candidate, hls_cfg));
    autotune::Evaluator evaluator(space, candidate, holdout_cand);
    autotune::TuneConfig tune = cfg_.tune;
    tune.seed = util::derive_seed(request.seed, /*purpose=*/0x13);
    const auto outcome = autotune::Autotuner(space, evaluator, tune).run();
    report.autotuned = true;
    report.tuned_dominates = outcome.selected_dominates;
    if (const auto* selected = outcome.selected()) {
      hls_cfg = space.materialize(selected->candidate);
    }
  }
  if (request.mutate_hls) request.mutate_hls(hls_cfg);

  auto quantized = std::make_shared<const hls::QuantizedModel>(
      hls::compile(candidate, hls_cfg));

  std::ostringstream verdict;
  bool passed = true;
  const auto fail = [&](RejectCode code) {
    passed = false;
    if (report.reject_code == RejectCode::kNone) report.reject_code = code;
  };

  // Pre-traffic budget guard on the *compiled* firmware: an autotuned (or
  // hook-mutated) plan whose measured estimate violates the device budget
  // or the deadline must never reach the registry, whatever the accuracy
  // gates say.
  if (cfg_.autotune || cfg_.enforce_budget) {
    const auto score =
        autotune::Evaluator::score_firmware(quantized->firmware());
    report.predicted_latency_ms = score.latency_ms;
    report.alut_utilization = score.alut_utilization;
    const bool over_budget = !score.fits;
    const bool over_deadline = !score.meets_deadline;
    if (over_budget) {
      fail(RejectCode::kResourceBudget);
      verdict << "resource budget violated (ALUT "
              << score.alut_utilization * 100.0 << "%, DSP "
              << score.dsp_utilization * 100.0 << "% of "
              << hls::DeviceSpec::arria10_sx660().name << "); ";
    }
    if (over_deadline) {
      fail(RejectCode::kDeadline);
      verdict << "predicted latency " << score.latency_ms << " ms exceeds "
              << autotune::kDeadlineMs << " ms deadline; ";
    }
    if (over_budget || over_deadline) {
      budget_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const auto accuracy =
      hls::evaluate_quantization(candidate, *quantized, holdout_cand);
  report.quant_accuracy_mi = accuracy.accuracy_mi;
  report.quant_accuracy_rr = accuracy.accuracy_rr;

  if (accuracy.accuracy_mi < cfg_.min_quant_accuracy ||
      accuracy.accuracy_rr < cfg_.min_quant_accuracy) {
    fail(RejectCode::kQuantAccuracy);
    verdict << "quantization accuracy (" << accuracy.accuracy_mi << ", "
            << accuracy.accuracy_rr << ") below " << cfg_.min_quant_accuracy
            << "; ";
  }
  if (request.incumbent &&
      report.holdout_mse >
          cfg_.max_mse_ratio * report.incumbent_holdout_mse) {
    fail(RejectCode::kHoldoutMse);
    verdict << "holdout MSE " << report.holdout_mse << " exceeds "
            << cfg_.max_mse_ratio << "x incumbent ("
            << report.incumbent_holdout_mse << "); ";
  }
  report.passed = passed;
  report.reason = passed ? "qualified" : verdict.str();
  result.qualified = passed;
  if (passed) {
    result.artifact.emplace(std::move(candidate), std::move(standardizer),
                            std::move(quantized), report);
  }
  return result;
}

}  // namespace reads::lifecycle
