// Lifecycle subsystem tests: versioned RCU registry, windowed drift
// detection with hysteresis, and background requalification gates. All on
// a 16-monitor machine + tiny U-Net so the full retrain->quantize->qualify
// path runs in milliseconds.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "autotune/evaluator.hpp"
#include "blm/generator.hpp"
#include "hls/firmware.hpp"
#include "hls/profiler.hpp"
#include "hls/qmodel.hpp"
#include "lifecycle/drift.hpp"
#include "lifecycle/registry.hpp"
#include "lifecycle/requalify.hpp"
#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "train/standardize.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using tensor::Tensor;

blm::MachineConfig tiny_machine() {
  auto cfg = blm::MachineConfig::fermilab_like();
  cfg.monitors = 16;
  cfg.mi.source_positions = {2, 9};
  cfg.rr.source_positions = {5, 13};
  return cfg;
}

nn::Model tiny_unet() {
  return nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
}

lifecycle::RequalifyConfig tiny_requalify_config() {
  lifecycle::RequalifyConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.holdout_fraction = 0.25;
  cfg.reuse = {};  // the deployed plan is sized for the 260-monitor U-Net
  cfg.min_quant_accuracy = 0.5;
  cfg.max_mse_ratio = 1.05;
  return cfg;
}

std::vector<blm::BlmFrame> tiny_frames(std::size_t n, std::uint64_t seed) {
  blm::FrameGenerator gen(tiny_machine(), seed);
  std::vector<blm::BlmFrame> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next());
  return out;
}

/// An artifact with randomly initialized weights (enough structure for
/// registry tests; requalification tests build trained ones).
lifecycle::ModelArtifact random_artifact(std::uint64_t seed) {
  auto model = tiny_unet();
  nn::init_he_uniform(model, seed);
  auto frames = tiny_frames(8, seed + 1);
  std::vector<Tensor> raws;
  for (const auto& f : frames) raws.push_back(f.raw);
  train::Standardizer standardizer;
  standardizer.fit_global(raws);
  std::vector<Tensor> calib;
  for (const auto& r : raws) calib.push_back(standardizer.transform(r));
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(
      model, hls::profile_model(model, calib), 16);
  auto quantized = std::make_shared<const hls::QuantizedModel>(
      hls::compile(model, cfg));
  return lifecycle::ModelArtifact(std::move(model), std::move(standardizer),
                                  std::move(quantized));
}

// ---------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, PublishAssignsDenseVersionsAndContentHashes) {
  lifecycle::ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  auto v1 = registry.publish(random_artifact(1));
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->content_hash, nn::weights_hash(v1->model));
  EXPECT_NE(v1->content_hash, 0u);
  EXPECT_EQ(registry.current(), v1);

  auto v2 = registry.publish(random_artifact(2));
  EXPECT_EQ(v2->version, 2u);
  EXPECT_NE(v2->content_hash, v1->content_hash);
  EXPECT_EQ(registry.current(), v2);
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_EQ(registry.version(1), v1);
  EXPECT_EQ(registry.version(2), v2);
  EXPECT_EQ(registry.version(3), nullptr);
  EXPECT_EQ(registry.version(0), nullptr);
}

TEST(ModelRegistry, RejectsArtifactWithoutFirmware) {
  lifecycle::ModelRegistry registry;
  auto artifact = random_artifact(3);
  artifact.quantized = nullptr;
  EXPECT_THROW(registry.publish(std::move(artifact)), std::invalid_argument);
}

TEST(ModelRegistry, RollbackWalksBackThroughHistory) {
  lifecycle::ModelRegistry registry;
  EXPECT_EQ(registry.rollback(), nullptr);  // nothing published yet

  registry.publish(random_artifact(4));
  registry.publish(random_artifact(5));
  auto back = registry.rollback();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->version, 1u);
  EXPECT_EQ(registry.current()->version, 1u);

  // No generation before v1: rollback refuses and current is unchanged.
  EXPECT_EQ(registry.rollback(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);

  // History survives a rollback: v2 is still addressable and a new publish
  // continues the dense numbering.
  EXPECT_NE(registry.version(2), nullptr);
  EXPECT_EQ(registry.publish(random_artifact(6))->version, 3u);
}

TEST(ModelRegistry, PersistsWeightsLoadableByContentHash) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "reads_registry_test";
  std::filesystem::remove_all(dir);
  lifecycle::ModelRegistry registry(dir.string());
  auto v1 = registry.publish(random_artifact(7));

  std::filesystem::path expect;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    expect = entry.path();
  }
  ASSERT_FALSE(expect.empty());
  EXPECT_NE(expect.string().find("v1_"), std::string::npos);

  auto reloaded = tiny_unet();
  nn::load_weights(reloaded, expect.string());
  EXPECT_EQ(nn::weights_hash(reloaded), v1->content_hash);
  std::filesystem::remove_all(dir);
}

TEST(ModelRegistry, ConcurrentReadersNeverSeeTornState) {
  lifecycle::ModelRegistry registry;
  registry.publish(random_artifact(10));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_seen{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto cur = registry.current();
        ASSERT_NE(cur, nullptr);
        ASSERT_GE(cur->version, 1u);
        ASSERT_NE(cur->quantized, nullptr);
        std::uint64_t seen = max_seen.load(std::memory_order_relaxed);
        while (cur->version > seen &&
               !max_seen.compare_exchange_weak(seen, cur->version)) {
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 6; ++i) {
    registry.publish(random_artifact(20 + i));
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(registry.current()->version, 7u);
  EXPECT_LE(max_seen.load(), 7u);
}

// ----------------------------------------------------------- DriftMonitor

constexpr std::size_t kMon = 16;

Tensor const_frame(float v) {
  Tensor t({kMon, 1});
  for (auto& x : t.flat()) x = v;
  return t;
}

Tensor const_probs(float p) {
  Tensor t({kMon, 2});
  for (auto& x : t.flat()) x = p;
  return t;
}

void feed_windows(lifecycle::DriftMonitor& m, std::size_t windows,
                  float input, float prob) {
  const std::size_t w = m.config().window;
  for (std::size_t i = 0; i < windows * w; ++i) {
    m.observe(const_frame(input), const_probs(prob));
  }
}

lifecycle::DriftConfig small_drift_config() {
  lifecycle::DriftConfig cfg;
  cfg.window = 8;
  cfg.baseline_windows = 1;
  cfg.trigger_threshold = 4.0;
  cfg.clear_threshold = 2.0;
  cfg.consecutive = 2;
  return cfg;
}

TEST(DriftMonitor, StableStreamNeverTriggers) {
  lifecycle::DriftMonitor m(small_drift_config());
  feed_windows(m, 6, 0.25f, 0.2f);
  EXPECT_FALSE(m.triggered());
  const auto snap = m.snapshot();
  EXPECT_TRUE(snap.baseline_frozen);
  EXPECT_EQ(snap.alarm_streak, 0u);
  EXPECT_DOUBLE_EQ(snap.score, 0.0);
  EXPECT_EQ(snap.windows, 5u);  // 6 minus the baseline window
}

TEST(DriftMonitor, InputShiftLatchesAfterConsecutiveWindows) {
  lifecycle::DriftMonitor m(small_drift_config());
  feed_windows(m, 2, 0.25f, 0.2f);  // baseline + one quiet window
  EXPECT_FALSE(m.triggered());

  feed_windows(m, 1, 1.25f, 0.2f);  // first alarmed window: streak, no latch
  EXPECT_FALSE(m.triggered());
  EXPECT_EQ(m.snapshot().alarm_streak, 1u);
  EXPECT_GE(m.snapshot().input_shift, m.config().trigger_threshold);

  feed_windows(m, 1, 1.25f, 0.2f);  // second consecutive: latched
  EXPECT_TRUE(m.triggered());

  // Latched: returning to nominal does not clear it.
  feed_windows(m, 2, 0.25f, 0.2f);
  EXPECT_TRUE(m.triggered());
}

TEST(DriftMonitor, OutputShiftAloneLatches) {
  lifecycle::DriftMonitor m(small_drift_config());
  feed_windows(m, 2, 0.25f, 0.2f);
  feed_windows(m, 2, 0.25f, 0.6f);  // inputs nominal, output mass tripled
  EXPECT_TRUE(m.triggered());
  EXPECT_GE(m.snapshot().output_shift, m.config().trigger_threshold);
}

TEST(DriftMonitor, HysteresisSingleSpikeWindowDoesNotLatch) {
  lifecycle::DriftMonitor m(small_drift_config());
  feed_windows(m, 2, 0.25f, 0.2f);
  feed_windows(m, 1, 1.25f, 0.2f);  // one alarmed window...
  feed_windows(m, 1, 0.25f, 0.2f);  // ...cleared before the second
  EXPECT_FALSE(m.triggered());
  EXPECT_EQ(m.snapshot().alarm_streak, 0u);
  // The same spike pattern repeated never accumulates a streak of 2.
  for (int i = 0; i < 4; ++i) {
    feed_windows(m, 1, 1.25f, 0.2f);
    feed_windows(m, 1, 0.25f, 0.2f);
  }
  EXPECT_FALSE(m.triggered());
}

TEST(DriftMonitor, RearmClearsLatchAndAdoptsNewNormal) {
  lifecycle::DriftMonitor m(small_drift_config());
  feed_windows(m, 2, 0.25f, 0.2f);
  feed_windows(m, 2, 1.25f, 0.2f);
  ASSERT_TRUE(m.triggered());

  m.rearm();
  EXPECT_FALSE(m.triggered());
  EXPECT_FALSE(m.snapshot().baseline_frozen);

  // The shifted level is the new baseline: staying there is quiet...
  feed_windows(m, 4, 1.25f, 0.2f);
  EXPECT_FALSE(m.triggered());
  // ...and shifting AGAIN latches again (the cycle can repeat).
  feed_windows(m, 2, 2.5f, 0.2f);
  EXPECT_TRUE(m.triggered());
}

TEST(DriftMonitor, ValidatesConfigAndGeometry) {
  lifecycle::DriftConfig bad = small_drift_config();
  bad.window = 0;
  EXPECT_THROW(lifecycle::DriftMonitor{bad}, std::invalid_argument);
  bad = small_drift_config();
  bad.clear_threshold = bad.trigger_threshold + 1.0;
  EXPECT_THROW(lifecycle::DriftMonitor{bad}, std::invalid_argument);

  lifecycle::DriftMonitor m(small_drift_config());
  m.observe(const_frame(0.1f), const_probs(0.2f));
  Tensor wrong({kMon + 1, 1});
  for (auto& x : wrong.flat()) x = 0.1f;
  EXPECT_THROW(m.observe(wrong, const_probs(0.2f)), std::invalid_argument);
  Tensor bad_probs({kMon, 1});
  EXPECT_THROW(m.observe(const_frame(0.1f), bad_probs),
               std::invalid_argument);
}

// ------------------------------------------------------------ Requalifier

TEST(Requalifier, ColdStartTrainsAndQualifies) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);
  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(32, 100);
  request.seed = 5;

  auto result = req.run(std::move(request));
  ASSERT_TRUE(result.qualified) << result.report.reason;
  ASSERT_TRUE(result.artifact.has_value());
  EXPECT_TRUE(result.report.passed);
  EXPECT_EQ(result.report.reason, "qualified");
  EXPECT_EQ(result.report.holdout_frames, 8u);
  EXPECT_GT(result.report.quant_accuracy_mi, 0.5);
  EXPECT_GT(result.report.quant_accuracy_rr, 0.5);
  EXPECT_GT(result.report.holdout_mse, 0.0);
  EXPECT_NE(result.artifact->quantized, nullptr);
}

TEST(Requalifier, WarmStartBeatsItsIncumbentOnDriftedTraffic) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);

  lifecycle::RequalifyRequest first;
  first.frames = tiny_frames(32, 100);
  first.seed = 5;
  auto incumbent = req.run(std::move(first));
  ASSERT_TRUE(incumbent.qualified);

  // Drifted machine: different loss geometry than the incumbent saw.
  auto drifted = tiny_machine();
  drifted.mi.source_positions = {6, 14};
  drifted.mi.event_probability =
      std::min(1.0, drifted.mi.event_probability * 1.5);
  blm::FrameGenerator gen(drifted, 200);
  lifecycle::RequalifyRequest second;
  for (int i = 0; i < 32; ++i) second.frames.push_back(gen.next());
  second.seed = 6;
  second.incumbent = std::make_shared<const lifecycle::ModelArtifact>(
      std::move(*incumbent.artifact));

  auto result = req.run(std::move(second));
  ASSERT_TRUE(result.qualified) << result.report.reason;
  EXPECT_LE(result.report.holdout_mse,
            1.05 * result.report.incumbent_holdout_mse);
}

TEST(Requalifier, CorruptingMutatorIsRejectedByTheGates) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);

  lifecycle::RequalifyRequest first;
  first.frames = tiny_frames(32, 100);
  first.seed = 5;
  auto incumbent = req.run(std::move(first));
  ASSERT_TRUE(incumbent.qualified);
  auto incumbent_ptr = std::make_shared<const lifecycle::ModelArtifact>(
      std::move(*incumbent.artifact));

  lifecycle::RequalifyRequest second;
  second.frames = tiny_frames(32, 300);
  second.seed = 6;
  second.incumbent = incumbent_ptr;
  second.mutate = [](nn::Model& m) {
    for (auto* p : m.parameters()) {
      for (std::size_t i = 0; i < p->numel(); ++i) p->data()[i] *= 64.0f;
    }
  };

  auto result = req.run(std::move(second));
  EXPECT_FALSE(result.qualified);
  EXPECT_FALSE(result.artifact.has_value());
  EXPECT_FALSE(result.report.passed);
  EXPECT_NE(result.report.reason, "qualified");
}

TEST(Requalifier, AutotuneStagePublishesTunedPlanThroughTheGates) {
  auto cfg = tiny_requalify_config();
  cfg.autotune = true;
  cfg.tune.budget = 6;
  cfg.tune.proposals_per_round = 12;
  cfg.tune.shortlist = 2;
  cfg.tune.greedy_descent_steps = 2;
  lifecycle::Requalifier req(cfg, tiny_unet);

  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(32, 100);
  request.seed = 5;
  auto result = req.run(std::move(request));
  ASSERT_TRUE(result.qualified) << result.report.reason;
  EXPECT_TRUE(result.report.autotuned);
  EXPECT_EQ(result.report.reject_code, lifecycle::RejectCode::kNone);
  // The compiled plan was measured against the budget before publication.
  EXPECT_GT(result.report.predicted_latency_ms, 0.0);
  EXPECT_GT(result.report.alut_utilization, 0.0);
  EXPECT_EQ(req.budget_rejects(), 0u);
  // Determinism: the same request reproduces the same tuned plan.
  lifecycle::RequalifyRequest again;
  again.frames = tiny_frames(32, 100);
  again.seed = 5;
  auto result2 = req.run(std::move(again));
  ASSERT_TRUE(result2.qualified);
  EXPECT_EQ(result2.report.tuned_dominates, result.report.tuned_dominates);
  EXPECT_DOUBLE_EQ(result2.report.predicted_latency_ms,
                   result.report.predicted_latency_ms);
}

TEST(Requalifier, BudgetGuardRejectsViolatingFirmwarePreTraffic) {
  // Forced violation: whatever plan the autotune stage picks (or falls back
  // to), the mutate_hls hook widens every layer to 32 bits (DSP-ineligible,
  // soft-logic multipliers) and unrolls it fully, so the compiled firmware
  // breaks the Arria 10 resource budget. The guard must reject it before
  // it can ever serve traffic, with a counted reason code.
  auto cfg = tiny_requalify_config();
  cfg.autotune = true;
  cfg.tune.budget = 4;
  cfg.tune.proposals_per_round = 8;
  cfg.tune.shortlist = 2;
  cfg.tune.greedy_descent_steps = 1;
  lifecycle::Requalifier req(cfg, tiny_unet);

  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(32, 100);
  request.seed = 5;
  request.mutate_hls = [](hls::HlsConfig& hls_cfg) {
    hls_cfg.quant = hls::QuantConfig::uniform({32, 16});
    hls_cfg.reuse.default_reuse = 1;
    hls_cfg.reuse.overrides.clear();
  };
  auto result = req.run(std::move(request));
  EXPECT_FALSE(result.qualified);
  EXPECT_FALSE(result.artifact.has_value());
  EXPECT_GT(result.report.alut_utilization, 1.0);
  EXPECT_EQ(result.report.reject_code, lifecycle::RejectCode::kResourceBudget);
  EXPECT_EQ(lifecycle::to_string(result.report.reject_code),
            "resource_budget");
  EXPECT_EQ(req.budget_rejects(), 1u);
  EXPECT_NE(result.report.reason.find("resource budget"), std::string::npos)
      << result.report.reason;
}

TEST(Requalifier, DeadlineGuardRejectsViaMutateHlsHook) {
  // The mutate_hls fault-injection hook serializes every layer to reuse
  // mults_per_output and slows the IP clock to 10 kHz; on the measured
  // estimate the firmware then misses the 3 ms deadline and must be
  // rejected.
  auto cfg = tiny_requalify_config();
  cfg.enforce_budget = true;
  lifecycle::Requalifier req(cfg, tiny_unet);

  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(32, 100);
  request.seed = 5;
  request.mutate_hls = [](hls::HlsConfig& hls_cfg) {
    hls_cfg.reuse.default_reuse = 1u << 16;  // clamped to full serialization
    hls_cfg.reuse.overrides.clear();
    hls_cfg.clock_mhz = 0.01;
  };
  auto result = req.run(std::move(request));
  EXPECT_FALSE(result.qualified);
  EXPECT_GT(result.report.predicted_latency_ms, autotune::kDeadlineMs);
  EXPECT_EQ(result.report.reject_code, lifecycle::RejectCode::kDeadline);
  EXPECT_EQ(lifecycle::to_string(result.report.reject_code), "deadline");
  EXPECT_FALSE(result.report.autotuned);  // enforce_budget alone, no tuner
  EXPECT_EQ(req.budget_rejects(), 1u);
}

TEST(Requalifier, RejectsRequestsWithTooFewFrames) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);
  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(4, 100);
  EXPECT_THROW(req.run(std::move(request)), std::invalid_argument);
}

TEST(Requalifier, BackgroundSubmitRunsOnWorkerAndReportsBusy) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);
  EXPECT_FALSE(req.busy());
  EXPECT_EQ(req.completed(), 0u);

  std::promise<lifecycle::RequalifyResult> done;
  auto future = done.get_future();
  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(32, 100);
  request.seed = 5;
  ASSERT_TRUE(req.submit(std::move(request), [&done](auto result) {
    done.set_value(std::move(result));
  }));

  // A second submission while the worker is training is refused (the
  // manager retries on a later tick with fresher frames).
  lifecycle::RequalifyRequest rival;
  rival.frames = tiny_frames(32, 101);
  EXPECT_FALSE(req.submit(std::move(rival), [](auto) {}));

  auto result = future.get();
  EXPECT_TRUE(result.qualified) << result.report.reason;
  EXPECT_EQ(req.completed(), 1u);
  EXPECT_FALSE(req.busy());
}

TEST(Requalifier, WorkerSurvivesThrowingJobAndReportsFailure) {
  lifecycle::Requalifier req(tiny_requalify_config(), tiny_unet);
  std::promise<lifecycle::RequalifyResult> done;
  auto future = done.get_future();
  lifecycle::RequalifyRequest request;
  request.frames = tiny_frames(4, 100);  // too few: run() throws inside
  ASSERT_TRUE(req.submit(std::move(request), [&done](auto result) {
    done.set_value(std::move(result));
  }));
  auto result = future.get();
  EXPECT_FALSE(result.qualified);
  EXPECT_NE(result.report.reason.find("requalification error"),
            std::string::npos);

  // The worker is alive and accepts the next job.
  std::promise<lifecycle::RequalifyResult> again;
  auto again_future = again.get_future();
  lifecycle::RequalifyRequest good;
  good.frames = tiny_frames(32, 100);
  good.seed = 5;
  ASSERT_TRUE(req.submit(std::move(good), [&again](auto result) {
    again.set_value(std::move(result));
  }));
  EXPECT_TRUE(again_future.get().qualified);
}

}  // namespace
