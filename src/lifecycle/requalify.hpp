// Requalifier: background retraining and re-qualification of the deployed
// model on recent traffic.
//
// When the DriftMonitor fires, the lifecycle manager hands the requalifier
// the most recent labelled frames (in the paper's setting, labels arrive
// out-of-band from the accelerator's logging chain — here the bench keeps
// the generator's ground truth) and the incumbent artifact. On its own
// thread the requalifier re-runs the paper's full codesign loop:
//
//   1. refit the standardizer on the recent raw frames (facility-style
//      fit_global — one scale for all monitors),
//   2. warm-start a fresh topology from the incumbent's weights and train
//      a few epochs on the recent frames,
//   3. lower to firmware exactly like the original deployment: profile on
//      the held-out frames, layer-based PTQ at total_bits, compile with
//      the deployed reuse plan,
//   4. gate: quantized-vs-float accuracy (the paper's within-0.20 rule)
//      must clear min_quant_accuracy on both channels, AND the candidate's
//      float holdout MSE must not exceed max_mse_ratio x the incumbent's
//      on the same held-out frames (each model judged under its own
//      standardizer — a candidate must beat the incumbent at the
//      incumbent's best, not at serving the candidate's preprocessing).
//
// Only a candidate that passes both gates produces an artifact eligible
// for the registry; a failed candidate is returned with the report saying
// why, and the caller decides whether to retry with more data.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "autotune/tuner.hpp"
#include "blm/generator.hpp"
#include "hls/firmware.hpp"
#include "lifecycle/registry.hpp"
#include "nn/model.hpp"

namespace reads::lifecycle {

/// Builds one untrained instance of the deployed topology (weights are
/// copied or initialized by the requalifier). nn::Model is move-only, so
/// "clone the incumbent" is factory() + nn::copy_weights.
using ModelFactory = std::function<nn::Model()>;

struct RequalifyConfig {
  std::size_t epochs = 3;
  std::size_t batch_size = 16;
  double learning_rate = 1e-3;
  /// Fraction of the recent frames held out of training for the MSE gate
  /// and PTQ calibration/qualification.
  double holdout_fraction = 0.25;
  int total_bits = 16;
  hls::ReusePolicy reuse;  ///< default: ReusePolicy::deployed_unet()
  double clock_mhz = 100.0;
  /// Gate 1: quantized-vs-float accuracy (within hls::kAccuracyTolerance)
  /// on both channels over the holdout.
  double min_quant_accuracy = 0.98;
  /// Gate 2: candidate holdout MSE <= this multiple of the incumbent's.
  double max_mse_ratio = 1.05;

  /// Opt-in autotune stage: after profiling, run the src/autotune/ search
  /// from the layer_based_config seed and deploy the selected per-layer
  /// <W, I, reuse> plan when the tuner finds a baseline-dominating point
  /// (falls back to the seed plan when it does not).
  bool autotune = false;
  autotune::TuneConfig tune{};
  /// Enforce the evaluator's resource/deadline budget
  /// (autotune::Evaluator::score_firmware) on the compiled firmware even
  /// when the autotune stage is off. Always enforced when autotune is on.
  bool enforce_budget = false;

  RequalifyConfig() : reuse(hls::ReusePolicy::deployed_unet()) {}
};

struct RequalifyRequest {
  /// Recent labelled frames, oldest first; the newest holdout_fraction are
  /// held out (qualify on the data closest to "now").
  std::vector<blm::BlmFrame> frames;
  /// Serving generation to warm-start from and to beat on the holdout;
  /// null = cold start (seed-initialized weights, MSE gate vacuous).
  std::shared_ptr<const ModelArtifact> incumbent;
  std::uint64_t seed = 1;
  /// Test/fault-injection hook applied to the trained candidate before
  /// qualification — a corrupted candidate must be caught by the gates.
  std::function<void(nn::Model&)> mutate;
  /// Test/fault-injection hook applied to the chosen HlsConfig after the
  /// autotune stage but before the final compile — a plan that violates
  /// the resource budget must be rejected by the pre-traffic guard.
  std::function<void(hls::HlsConfig&)> mutate_hls;
};

struct RequalifyResult {
  bool qualified = false;
  QualificationReport report;
  /// Complete (model + standardizer + quantized firmware) only when
  /// qualified; report is always filled.
  std::optional<ModelArtifact> artifact;
};

class Requalifier {
 public:
  Requalifier(RequalifyConfig config, ModelFactory factory);
  ~Requalifier();

  Requalifier(const Requalifier&) = delete;
  Requalifier& operator=(const Requalifier&) = delete;

  /// Synchronous codesign loop; safe from any thread (touches no shared
  /// state). Throws std::invalid_argument on an unusable request (< 8
  /// frames, or no factory).
  RequalifyResult run(RequalifyRequest request) const;

  /// Hand the request to the background worker. Returns false (request
  /// untouched) when a job is already in flight. `done` runs on the worker
  /// thread after qualification finishes.
  bool submit(RequalifyRequest request,
              std::function<void(RequalifyResult)> done);

  bool busy() const noexcept {
    return busy_.load(std::memory_order_acquire);
  }
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Candidates rejected pre-traffic because the compiled firmware's
  /// measured estimate violated the resource budget or the deadline.
  std::uint64_t budget_rejects() const noexcept {
    return budget_rejects_.load(std::memory_order_relaxed);
  }

  const RequalifyConfig& config() const noexcept { return cfg_; }

 private:
  void worker_loop();

  RequalifyConfig cfg_;
  ModelFactory factory_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<RequalifyRequest> job_;
  std::function<void(RequalifyResult)> done_;
  bool stop_ = false;
  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> completed_{0};
  /// mutable: run() is const (stateless apart from counters).
  mutable std::atomic<std::uint64_t> budget_rejects_{0};
  std::thread worker_;
};

}  // namespace reads::lifecycle
