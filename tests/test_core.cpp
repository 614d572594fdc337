// Core API tests: staged verification flow, pretrained cache, deblending
// system decisions, and the co-design optimizer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "blm/data.hpp"
#include "blm/generator.hpp"
#include "core/codesign.hpp"
#include "core/deblender.hpp"
#include "core/pretrained.hpp"
#include "core/verification.hpp"
#include "lifecycle/manager.hpp"
#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace reads;

core::PretrainedOptions tiny_options(const std::string& tag) {
  core::PretrainedOptions o;
  o.train_frames = 24;
  o.epochs = 2;
  o.batch_size = 8;
  o.seed = 1234;
  o.cache_dir = ::testing::TempDir() + "/reads-cache-" + tag;
  // TempDir persists across runs; each fixture starts from a clean cache.
  std::filesystem::remove_all(o.cache_dir);
  return o;
}

TEST(VerificationFlow, AllSixStagesPass) {
  const auto report = core::run_verification_flow(99);
  ASSERT_EQ(report.stages.size(), 6u);
  for (const auto& s : report.stages) {
    EXPECT_TRUE(s.passed) << "stage " << s.stage << " (" << s.name
                          << "): " << s.detail;
  }
  EXPECT_TRUE(report.all_passed());
}

TEST(VerificationFlow, DeterministicForSeed) {
  const auto a = core::run_verification_flow(7);
  const auto b = core::run_verification_flow(7);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].detail, b.stages[i].detail);
  }
}

TEST(Pretrained, TrainsThenLoadsFromCache) {
  const auto opts = tiny_options("mlp");
  const auto first = core::pretrained_mlp(opts);
  EXPECT_FALSE(first.loaded_from_cache);
  EXPECT_GT(first.final_loss, 0.0);
  const auto second = core::pretrained_mlp(opts);
  EXPECT_TRUE(second.loaded_from_cache);
  // Identical weights after reload.
  const auto p1 = first.model.parameters();
  const auto p2 = second.model.parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(*p1[i], *p2[i]);
}

TEST(Pretrained, CacheKeyDependsOnSeed) {
  auto a = tiny_options("seed");
  const auto dir = core::model_cache_dir(a);
  core::pretrained_mlp(a);
  auto b = a;
  b.seed = 4321;
  core::pretrained_mlp(b);
  std::size_t weights = 0;
  std::size_t stamps = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    if (e.path().extension() == ".stamp") {
      ++stamps;
    } else {
      ++weights;
    }
  }
  EXPECT_EQ(weights, 2u);
  EXPECT_EQ(stamps, 2u);
}

TEST(Pretrained, StandardizerAlwaysFitted) {
  const auto bundle = core::pretrained_mlp(tiny_options("std"));
  EXPECT_TRUE(bundle.standardizer.fitted());
}

TEST(MitigationTarget, ToString) {
  EXPECT_EQ(core::to_string(core::MitigationTarget::kMainInjector), "MI");
  EXPECT_EQ(core::to_string(core::MitigationTarget::kRecyclerRing), "RR");
  EXPECT_EQ(core::to_string(core::MitigationTarget::kNone), "none");
}

TEST(DeblendingSystem, ProcessesRawFramesWithinDeadline) {
  core::DeblendConfig cfg;
  cfg.model = tiny_options("deblend");
  cfg.calibration_frames = 8;
  auto system = core::DeblendingSystem::build(cfg);

  blm::FrameGenerator gen(blm::MachineConfig::fermilab_like(), 777);
  for (int i = 0; i < 3; ++i) {
    const auto frame = gen.next();
    const auto decision = system.process(frame.raw);
    EXPECT_EQ(decision.probabilities.shape(),
              (std::vector<std::size_t>{260, 2}));
    EXPECT_GE(decision.mi_score, 0.0);
    EXPECT_GE(decision.rr_score, 0.0);
    EXPECT_TRUE(decision.timing.deadline_met);
    EXPECT_LT(decision.timing.total_ms, 3.0);
  }
  EXPECT_EQ(system.float_model().param_count(), 134'434u);
  EXPECT_GT(system.ip_latency().total_cycles, 0u);
}

TEST(Codesign, SelectsFeasibleLowestCost) {
  auto model = nn::build_unet({.monitors = 32, .c1 = 4, .c2 = 6, .c3 = 8});
  nn::init_he_uniform(model, 3);
  const auto built = blm::build_data(12, 5);
  std::vector<tensor::Tensor> calib;
  // Down-sample the 260-monitor frames to 32 positions for the tiny model.
  for (const auto& in : built.dataset.inputs) {
    tensor::Tensor t({32, 1});
    for (std::size_t m = 0; m < 32; ++m) t[m] = in[m * 8];
    calib.push_back(std::move(t));
  }

  core::CodesignConstraints constraints;
  constraints.min_accuracy = 0.9;
  core::CodesignOptimizer opt(model, calib, constraints);

  const auto reuse = hls::ReusePolicy{};
  std::vector<core::Candidate> candidates = {
      {hls::PrecisionStrategy::kLayerBased, 16, 0, reuse, "layer16"},
      {hls::PrecisionStrategy::kLayerBased, 20, 0, reuse, "layer20"},
  };
  const auto outcome = opt.run(candidates);
  ASSERT_EQ(outcome.results.size(), 2u);
  ASSERT_TRUE(outcome.found());
  EXPECT_TRUE(outcome.results[outcome.selected].feasible());
}

TEST(Codesign, ReportsInfeasibilityHonestly) {
  auto model = nn::build_unet({.monitors = 32, .c1 = 4, .c2 = 6, .c3 = 8});
  nn::init_he_uniform(model, 3);
  std::vector<tensor::Tensor> calib = {tensor::Tensor({32, 1})};
  core::CodesignConstraints constraints;
  constraints.min_accuracy = 1.01;  // impossible by construction
  core::CodesignOptimizer opt(model, calib, constraints);
  const auto reuse = hls::ReusePolicy{};
  const auto outcome =
      opt.run({{hls::PrecisionStrategy::kLayerBased, 16, 0, reuse, "x"}});
  EXPECT_FALSE(outcome.found());
}

TEST(Codesign, DefaultCandidatesIncludePaperRows) {
  auto model = nn::build_unet({.monitors = 32, .c1 = 4, .c2 = 6, .c3 = 8});
  nn::init_he_uniform(model, 3);
  std::vector<tensor::Tensor> calib = {tensor::Tensor({32, 1})};
  core::CodesignOptimizer opt(model, calib);
  const auto cs = opt.default_candidates();
  ASSERT_GE(cs.size(), 3u);
  EXPECT_EQ(cs[0].total_bits, 18);
  EXPECT_EQ(cs[0].int_bits, 10);
  EXPECT_EQ(cs[1].total_bits, 16);
  EXPECT_EQ(cs[1].int_bits, 7);
}

// ---------------------------------------------------------------------------
// Weight-cache stamps: every cached weights file carries a sidecar recording
// the serializer format version and a content hash, both verified on load.

std::string cached_weights_path(const core::PretrainedOptions& o) {
  for (const auto& e :
       std::filesystem::directory_iterator(core::model_cache_dir(o))) {
    if (e.is_regular_file() && e.path().extension() != ".stamp") {
      return e.path().string();
    }
  }
  return {};
}

TEST(Pretrained, CacheStampRoundTrip) {
  auto o = tiny_options("stamp-rt");
  const auto first = core::pretrained_mlp(o);
  EXPECT_FALSE(first.loaded_from_cache);

  const auto path = cached_weights_path(o);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(core::cache_stamp_path(path), path + ".stamp");
  const auto stamp = core::read_cache_stamp(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->format_version, core::kWeightCacheFormatVersion);
  EXPECT_EQ(stamp->weights_hash, nn::weights_hash(first.model));

  const auto second = core::pretrained_mlp(o);
  EXPECT_TRUE(second.loaded_from_cache);
  EXPECT_EQ(nn::weights_hash(second.model), stamp->weights_hash);
}

TEST(Pretrained, StaleStampFormatVersionForcesRetrain) {
  auto o = tiny_options("stamp-stale");
  core::pretrained_mlp(o);
  const auto path = cached_weights_path(o);
  ASSERT_FALSE(path.empty());
  {
    std::ofstream out(core::cache_stamp_path(path), std::ios::trunc);
    out << "version 1\nhash 0\n";
  }
  const auto bundle = core::pretrained_mlp(o);
  EXPECT_FALSE(bundle.loaded_from_cache);
  // Retraining rewrote both the weights and a current-format stamp.
  const auto stamp = core::read_cache_stamp(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->format_version, core::kWeightCacheFormatVersion);
  EXPECT_EQ(stamp->weights_hash, nn::weights_hash(bundle.model));
}

TEST(Pretrained, ContentHashMismatchForcesRetrain) {
  auto o = tiny_options("stamp-hash");
  core::pretrained_mlp(o);
  const auto path = cached_weights_path(o);
  ASSERT_FALSE(path.empty());
  {
    // Keep the claimed format current but lie about the payload hash, as a
    // silently corrupted (yet still parseable) weights file would.
    std::ofstream out(core::cache_stamp_path(path), std::ios::trunc);
    out << "version " << core::kWeightCacheFormatVersion << "\n"
        << "hash deadbeef\n";
  }
  const auto bundle = core::pretrained_mlp(o);
  EXPECT_FALSE(bundle.loaded_from_cache);
  const auto stamp = core::read_cache_stamp(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->weights_hash, nn::weights_hash(bundle.model));
}

TEST(Pretrained, LegacyCacheWithoutStampIsAdoptedAndStamped) {
  auto o = tiny_options("stamp-legacy");
  core::pretrained_mlp(o);
  const auto path = cached_weights_path(o);
  ASSERT_FALSE(path.empty());
  std::filesystem::remove(core::cache_stamp_path(path));
  ASSERT_FALSE(core::read_cache_stamp(path).has_value());

  // Pre-stamp caches still load (the weights parsed cleanly) and are
  // stamped on the way out so the next load is hash-verified.
  const auto bundle = core::pretrained_mlp(o);
  EXPECT_TRUE(bundle.loaded_from_cache);
  const auto stamp = core::read_cache_stamp(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->weights_hash, nn::weights_hash(bundle.model));
}

// ---------------------------------------------------------------------------
// Zero-downtime hot-swap through the blocking decision loop.

TEST(DeblendingSystem, HotSwapServesFallbackThenLandsBitIdentically) {
  core::DeblendConfig cfg;
  cfg.model = tiny_options("swap");
  cfg.calibration_frames = 8;
  auto system = core::DeblendingSystem::build(cfg);
  EXPECT_EQ(system.model_epoch(), 1u);
  EXPECT_FALSE(system.swap_pending());

  blm::FrameGenerator gen(blm::MachineConfig::fermilab_like(), 4242);

  // Candidate = a weight-identical clone of the deployed generation, so the
  // landed swap must reproduce the incumbent bit for bit.
  auto clone = nn::build_unet(nn::UNetConfig{});
  nn::copy_weights(system.float_model(), clone);
  EXPECT_THROW(system.swap_model(nn::build_unet(nn::UNetConfig{}),
                                 system.standardizer(), nullptr, 3),
               std::invalid_argument);
  system.swap_model(std::move(clone), system.standardizer(),
                    system.quantized_ptr(), /*reconfig_window_frames=*/3);
  EXPECT_TRUE(system.swap_pending());
  EXPECT_THROW(system.swap_model(nn::build_unet(nn::UNetConfig{}),
                                 system.standardizer(),
                                 system.quantized_ptr(), 3),
               std::logic_error);

  // Every frame inside the reconfiguration window is served by the HPS
  // float fallback, flagged degraded + reconfiguring, still epoch 1.
  for (int i = 0; i < 3; ++i) {
    const auto d = system.process(gen.next().raw);
    EXPECT_TRUE(d.reconfiguring);
    EXPECT_TRUE(d.degraded);
    EXPECT_EQ(d.source, core::DecisionSource::kHpsFloatFallback);
    EXPECT_EQ(d.model_epoch, 1u);
    EXPECT_TRUE(d.timing.deadline_met);
    EXPECT_GT(d.probabilities.numel(), 0u);
  }
  EXPECT_TRUE(system.swap_pending());

  // The first frame after the window drains lands the swap: epoch bumps and
  // the decision comes from the (new) firmware on the NN IP.
  const auto raw = gen.next().raw;
  const auto landed = system.process(raw);
  EXPECT_FALSE(system.swap_pending());
  EXPECT_EQ(system.model_epoch(), 2u);
  EXPECT_EQ(landed.model_epoch, 2u);
  EXPECT_FALSE(landed.reconfiguring);
  EXPECT_FALSE(landed.degraded);
  EXPECT_EQ(landed.source, core::DecisionSource::kNnIp);
  const auto expect =
      system.quantized().forward(system.standardizer().transform(raw));
  EXPECT_EQ(landed.probabilities, expect);
}

TEST(LifecycleManager, DestroyMidRequalificationJoinsWorkerSafely) {
  core::DeblendConfig cfg;
  cfg.model = tiny_options("lifecycle-dtor");
  cfg.calibration_frames = 8;
  auto system = core::DeblendingSystem::build(cfg);

  // Hair-trigger drift config: ordinary window-to-window traffic noise
  // alarms, so the manager submits a requalification within a few windows.
  lifecycle::LifecycleConfig lc;
  lc.drift.window = 8;
  lc.drift.baseline_windows = 1;
  lc.drift.trigger_threshold = 0.01;
  lc.drift.clear_threshold = 0.005;
  lc.drift.consecutive = 1;
  lc.recent_capacity = 32;
  lc.min_frames = 16;
  lc.requalify.epochs = 1;
  lc.requalify.batch_size = 8;
  lc.seed = 7;

  blm::FrameGenerator gen(blm::MachineConfig::fermilab_like(), 77);
  {
    lifecycle::LifecycleManager manager(
        system, lc, [] { return nn::build_unet(nn::UNetConfig{}); });
    while (manager.phase() != lifecycle::LifecyclePhase::kRequalifying &&
           manager.ticks() < 512) {
      const auto f = gen.next();
      manager.tick(f.raw, f.target);
    }
    ASSERT_EQ(manager.phase(), lifecycle::LifecyclePhase::kRequalifying);
    // Scope exit destroys the manager while the requalification job is in
    // flight (the bench's max_ticks exit does exactly this): the Requalifier
    // must join its worker — whose done callback locks result_mutex_ —
    // before that mutex and the pending-result slot are destroyed.
  }
}

}  // namespace
