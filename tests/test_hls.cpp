// hls module tests: precision math, profiling, firmware lowering, the
// bit-accurate quantized executor (including the wrap-accumulator overflow
// semantics behind the paper's Table II / Fig. 5b), and the resource /
// latency models with their paper-shaped properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "hls/accuracy.hpp"
#include "hls/firmware.hpp"
#include "hls/latency.hpp"
#include "hls/precision.hpp"
#include "hls/profiler.hpp"
#include "hls/qmodel.hpp"
#include "hls/resource.hpp"
#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"
#include "nn/layers/concat.hpp"
#include "nn/layers/conv1d.hpp"
#include "nn/layers/dense.hpp"
#include "nn/layers/pool.hpp"
#include "nn/layers/upsample.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using tensor::Tensor;

Tensor random_frame(const std::vector<std::size_t>& shape, std::uint64_t seed,
                    double scale = 1.0) {
  util::Xoshiro256 rng(seed);
  Tensor t(shape);
  for (auto& v : t.flat()) v = static_cast<float>(scale * rng.normal());
  return t;
}

// ------------------------------------------------------------- precision

TEST(Precision, IntBitsForCoversPowerBoundaries) {
  EXPECT_EQ(hls::int_bits_for(0.0), 1);
  EXPECT_EQ(hls::int_bits_for(0.5), 1);
  EXPECT_EQ(hls::int_bits_for(1.5), 2);
  EXPECT_EQ(hls::int_bits_for(63.9), 7);
  EXPECT_EQ(hls::int_bits_for(64.1), 8);
  EXPECT_EQ(hls::int_bits_for(500.0), 10);
}

TEST(Precision, IntBitsAreSufficient) {
  // Property: a spec with int_bits_for(v) integer bits represents v without
  // saturation (the paper's layer-based sizing rule).
  for (double v : {0.3, 1.0, 2.5, 17.0, 63.0, 100.0, 450.0, 1200.0}) {
    const hls::FixedSpec spec{16, std::min(16, hls::int_bits_for(v))};
    if (spec.int_bits == 16 && v > spec.format().max_value()) continue;
    EXPECT_LE(v, spec.format().max_value() + 1e-9) << v;
  }
}

TEST(Precision, QuantConfigUniformAndOverride) {
  auto cfg = hls::QuantConfig::uniform({18, 10});
  EXPECT_EQ(cfg.layer("anything").weight, (hls::FixedSpec{18, 10}));
  cfg.per_layer["special"] = {{16, 2}, {16, 2}, {16, 9}};
  EXPECT_EQ(cfg.layer("special").activation, (hls::FixedSpec{16, 9}));
}

// -------------------------------------------------------------- profiler

TEST(Profiler, CapturesMaxRanges) {
  auto model = nn::build_mlp({.inputs = 4, .hidden = 3, .outputs = 2});
  nn::init_he_uniform(model, 1);
  std::vector<Tensor> inputs = {random_frame({1, 4}, 2, 10.0),
                                random_frame({1, 4}, 3, 0.1)};
  const auto prof = hls::profile_model(model, inputs);
  EXPECT_EQ(prof.calibration_frames, 2u);
  EXPECT_GT(prof.max_activation.at("blm_frame"), 1.0);
  EXPECT_GT(prof.max_weight.at("dense1"), 0.0);
  EXPECT_THROW(hls::profile_model(model, {}), std::invalid_argument);
}

TEST(Profiler, LayerBasedConfigSizesIntBitsFromProfile) {
  auto model = nn::build_mlp({.inputs = 4, .hidden = 3, .outputs = 2});
  nn::init_he_uniform(model, 5);
  std::vector<Tensor> inputs = {random_frame({1, 4}, 6, 40.0)};
  const auto prof = hls::profile_model(model, inputs);
  const auto cfg = hls::layer_based_config(model, prof, 16);
  const auto in_spec = cfg.layer("blm_frame").activation;
  EXPECT_EQ(in_spec.width, 16);
  EXPECT_EQ(in_spec.int_bits,
            hls::int_bits_for(prof.max_activation.at("blm_frame")));
  // extra_int_bits adds guard bits.
  const auto cfg1 = hls::layer_based_config(model, prof, 16, 1);
  EXPECT_EQ(cfg1.layer("blm_frame").activation.int_bits,
            std::min(16, in_spec.int_bits + 1));
}

TEST(Profiler, CoverageHistogramConsistentWithMax) {
  auto model = nn::build_mlp({.inputs = 4, .hidden = 3, .outputs = 2});
  nn::init_he_uniform(model, 9);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(random_frame({1, 4}, 700u + static_cast<unsigned>(i), 5.0));
  const auto prof = hls::profile_model(model, inputs);
  for (const auto& node : model.nodes()) {
    // Full coverage must reproduce the max-abs integer-bit count.
    EXPECT_EQ(prof.int_bits_for_coverage(node.name, 1.0),
              hls::int_bits_for(prof.max_activation.at(node.name)))
        << node.name;
    // Lower coverage can only shrink (or keep) the requirement.
    EXPECT_LE(prof.int_bits_for_coverage(node.name, 0.9),
              prof.int_bits_for_coverage(node.name, 1.0));
  }
}

TEST(Profiler, CoverageConfigMatchesMaxRuleAtFullCoverage) {
  auto model = nn::build_mlp({.inputs = 4, .hidden = 3, .outputs = 2});
  nn::init_he_uniform(model, 11);
  std::vector<Tensor> inputs = {random_frame({1, 4}, 800, 3.0)};
  const auto prof = hls::profile_model(model, inputs);
  const auto a = hls::layer_based_config(model, prof, 16);
  const auto b = hls::layer_based_config(model, prof, 16, 0, 1.0);
  for (const auto& [name, lq] : a.per_layer) {
    EXPECT_EQ(lq.activation, b.layer(name).activation) << name;
  }
  EXPECT_THROW(hls::layer_based_config(model, prof, 16, 0, 0.0),
               std::invalid_argument);
}

// The exponent-field bucket equals the int_bits_for rule it replaces at
// every power-of-two edge of the float range and at its specials.
TEST(Profiler, BucketMatchesIntBitsForAtEveryFloatEdge) {
  const auto want = [](float v) {
    return static_cast<std::size_t>(std::clamp(
        hls::int_bits_for(std::fabs(static_cast<double>(v))), 1,
        hls::kMaxActIntBits));
  };
  using limits = std::numeric_limits<float>;
  std::vector<float> points = {0.0f,
                               -0.0f,
                               limits::denorm_min(),
                               std::nextafter(limits::min(), 0.0f),
                               limits::max(),
                               -limits::max(),
                               limits::quiet_NaN(),
                               limits::infinity(),
                               -limits::infinity()};
  for (int e = -149; e <= 127; ++e) {
    const float p = std::ldexp(1.0f, e);
    points.push_back(p);
    points.push_back(std::nextafter(p, 0.0f));
    points.push_back(std::nextafter(p, limits::infinity()));
  }
  for (const float v : points) {
    EXPECT_EQ(hls::act_int_bits_bucket(v), want(v))
        << "v = " << v << " (bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(v) << ")";
  }
}

// profile_model (sharded over the pool, exponent-field buckets, float
// maxima) equals a single-threaded sweep that applies int_bits_for to
// every value. The last frame is scaled to overflow, so inf and NaN
// activations take the by-value path too.
TEST(Profiler, MatchesSingleThreadedIntBitsForSweep) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 77);
  std::vector<Tensor> inputs;
  for (unsigned i = 0; i < 9; ++i) {
    inputs.push_back(random_frame({16, 1}, 1300u + i, 0.5 + i));
  }
  inputs.push_back(random_frame({16, 1}, 1399, 3e38));
  const auto prof = hls::profile_model(model, inputs);

  nn::Activations acts;
  std::size_t non_finite = 0;
  for (std::size_t n = 0; n < model.nodes().size(); ++n) {
    const auto& name = model.nodes()[n].name;
    double max_abs = 0.0;
    std::array<std::uint64_t, hls::kMaxActIntBits + 1> hist{};
    for (const auto& in : inputs) {
      model.forward_all_into(in, acts);
      for (const float v : acts.values[n].flat()) {
        const double a = std::fabs(static_cast<double>(v));
        if (!std::isfinite(a)) ++non_finite;
        max_abs = std::max(max_abs, a);
        ++hist[static_cast<std::size_t>(
            std::clamp(hls::int_bits_for(a), 1, hls::kMaxActIntBits))];
      }
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(prof.max_activation.at(name)),
              std::bit_cast<std::uint64_t>(max_abs))
        << name;
    EXPECT_EQ(prof.act_int_bits_histogram.at(name), hist) << name;
  }
  EXPECT_GT(non_finite, 0u);
}

// -------------------------------------------------------------- firmware

TEST(Firmware, CompileMapsEveryNodeAndQuantizesWeights) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 7);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 7});
  const auto fw = hls::compile(model, cfg);
  EXPECT_EQ(fw.layers.size(), model.nodes().size());
  EXPECT_EQ(fw.input_values, 16u);
  EXPECT_EQ(fw.output_values, 32u);
  const auto& enc1a = fw.layer("enc1a");
  EXPECT_EQ(enc1a.kind, hls::LayerKind::kConv1D);
  EXPECT_EQ(enc1a.weights_raw.size(), 3u * 3u * 1u);
  EXPECT_EQ(enc1a.bias_raw.size(), 3u);
  for (auto w : enc1a.weights_raw) {
    EXPECT_GE(w, -(std::int64_t{1} << 15));
    EXPECT_LT(w, std::int64_t{1} << 15);
  }
}

TEST(Firmware, ReuseClampsToPerPositionMults) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 7);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 7});
  cfg.reuse.default_reuse = 10'000;  // absurdly serial
  const auto fw = hls::compile(model, cfg);
  const auto& head = fw.layer("head");
  EXPECT_EQ(head.mults_per_output, 3u * 2u);
  EXPECT_EQ(head.reuse, 6u);               // clamped
  EXPECT_EQ(head.instantiated_mults, 1u);  // fully serial
}

TEST(Firmware, DeployedPoliciesMatchPaper) {
  const auto unet = hls::ReusePolicy::deployed_unet();
  EXPECT_EQ(unet.default_reuse, 32u);
  EXPECT_EQ(unet.requested("bot_b"), 260u);
  EXPECT_EQ(unet.requested("head"), 260u);
  EXPECT_EQ(unet.requested("enc1a"), 32u);
  EXPECT_EQ(hls::ReusePolicy::deployed_mlp().default_reuse, 128u);
}

TEST(Firmware, BatchNormFoldsToScaleShift) {
  nn::Model model("in", {4, 2});
  auto bn = std::make_unique<nn::BatchNorm1D>(2);
  bn->set_running_stats(Tensor::from({2}, {1.0f, 2.0f}),
                        Tensor::from({2}, {4.0f, 9.0f}));
  model.add("bn", std::move(bn), {"in"});
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 4});
  const auto fw = hls::compile(model, cfg);
  const auto& l = fw.layer("bn");
  EXPECT_EQ(l.kind, hls::LayerKind::kBatchNorm);
  ASSERT_EQ(l.weights_raw.size(), 2u);
  const auto fmt = l.quant.weight.format();
  EXPECT_NEAR(fmt.to_double(l.weights_raw[0]), 1.0 / std::sqrt(4.001), 1e-2);
}

// ---------------------------------------------------------------- qmodel

TEST(QuantizedModel, MatchesFloatModelOnBenignRanges) {
  auto model = nn::build_mlp({.inputs = 8, .hidden = 6, .outputs = 4});
  nn::init_he_uniform(model, 11);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(random_frame({1, 8}, 100u + static_cast<unsigned>(i)));
  const auto prof = hls::profile_model(model, inputs);
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, prof, 16);
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  for (const auto& in : inputs) {
    EXPECT_LT(tensor::max_abs_diff(model.forward(in), qm.forward(in)), 0.02);
  }
}

TEST(QuantizedModel, WiderBitsReduceError) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 13);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(random_frame({16, 1}, 200u + static_cast<unsigned>(i)));
  const auto prof = hls::profile_model(model, inputs);
  double prev_err = 1e9;
  for (int bits : {8, 12, 16, 20}) {
    hls::HlsConfig cfg;
    cfg.quant = hls::layer_based_config(model, prof, bits);
    const hls::QuantizedModel qm(hls::compile(model, cfg));
    double err = 0.0;
    for (const auto& in : inputs) {
      err = std::max<double>(err,
                             tensor::max_abs_diff(model.forward(in), qm.forward(in)));
    }
    EXPECT_LE(err, prev_err + 1e-6) << bits << " bits";
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.01);
}

TEST(QuantizedModel, AccumulatorWrapsOnOverflow) {
  // One dense layer whose true output (200) exceeds the <16,7> ring (+-64):
  // the wrap accumulator must NOT saturate to 63.998 but wrap to garbage —
  // the paper's "inner layer overflow".
  nn::Model model("in", {1, 2});
  auto dense = std::make_unique<nn::Dense>(2, 1);
  dense->weight() = Tensor::from({1, 2}, {10.0f, 10.0f});
  dense->bias() = Tensor::from({1}, {0.0f});
  model.add("d", std::move(dense), {"in"});
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 7});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto in = Tensor::from({1, 2}, {10.0f, 10.0f});
  hls::ForwardStats stats;
  const auto out = qm.forward(in, &stats);
  EXPECT_EQ(stats.total_overflows(), 1u);
  EXPECT_LT(out[0], 64.0f);       // not the true 200
  EXPECT_NE(out[0], 63.998047f);  // and not a clean saturation either
}

TEST(QuantizedModel, NoOverflowWithEnoughIntBits) {
  nn::Model model("in", {1, 2});
  auto dense = std::make_unique<nn::Dense>(2, 1);
  dense->weight() = Tensor::from({1, 2}, {10.0f, 10.0f});
  dense->bias() = Tensor::from({1}, {0.0f});
  model.add("d", std::move(dense), {"in"});
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 9});  // range +-256 covers 200
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  hls::ForwardStats stats;
  const auto out = qm.forward(Tensor::from({1, 2}, {10.0f, 10.0f}), &stats);
  EXPECT_EQ(stats.total_overflows(), 0u);
  EXPECT_NEAR(out[0], 200.0f, 0.5f);
}

TEST(QuantizedModel, ExtraIntBitReducesOverflows) {
  // Fig. 5b's claim, as a property: +1 integer bit never increases and
  // typically halves the overflow count.
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 17);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_frame({16, 1}, 300u + static_cast<unsigned>(i), 3.0));
  const auto prof = hls::profile_model(model, calib);
  std::vector<Tensor> hot;
  for (int i = 0; i < 16; ++i) hot.push_back(random_frame({16, 1}, 400u + static_cast<unsigned>(i), 9.0));
  std::size_t counts[2] = {0, 0};
  for (int extra = 0; extra < 2; ++extra) {
    hls::HlsConfig cfg;
    cfg.quant = hls::layer_based_config(model, prof, 12, extra);
    const hls::QuantizedModel qm(hls::compile(model, cfg));
    hls::ForwardStats stats;
    for (const auto& in : hot) qm.forward(in, &stats);
    counts[extra] = stats.total_overflows();
  }
  EXPECT_LE(counts[1], counts[0]);
}

TEST(QuantizedModel, SigmoidLutAccuracy) {
  nn::Model model("in", {1, 4});
  model.add("s", std::make_unique<nn::Sigmoid>(), {"in"});
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 6});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto in = Tensor::from({1, 4}, {-6.0f, -0.5f, 0.5f, 6.0f});
  const auto out = qm.forward(in);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[i], 1.0f / (1.0f + std::exp(-in[i])), 0.02f) << i;
  }
}

TEST(QuantizedModel, RawPathMatchesFloatPath) {
  auto model = nn::build_mlp({.inputs = 6, .hidden = 4, .outputs = 3});
  nn::init_he_uniform(model, 19);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 7});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto in = random_frame({1, 6}, 500);
  const auto via_float = qm.forward(in);
  const auto via_raw = qm.dequantize_output(qm.forward_raw(qm.quantize_input(in)));
  EXPECT_EQ(tensor::max_abs_diff(via_float, via_raw), 0.0f);
}

TEST(QuantizedModel, InputSizeValidated) {
  auto model = nn::build_mlp({.inputs = 6, .hidden = 4, .outputs = 3});
  nn::init_he_uniform(model, 19);
  hls::HlsConfig cfg;
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  EXPECT_THROW(qm.forward(Tensor({1, 5})), std::invalid_argument);
  EXPECT_THROW(qm.forward_raw(std::vector<std::int64_t>(5)),
               std::invalid_argument);
}

// --------------------------------------------------------------- resource

hls::FirmwareModel unet_firmware(hls::FixedSpec spec,
                                 std::size_t default_reuse = 32) {
  static auto model = [] {
    auto m = nn::build_unet();
    nn::init_he_uniform(m, 23);
    return m;
  }();
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform(spec);
  cfg.reuse = hls::ReusePolicy::deployed_unet();
  cfg.reuse.default_reuse = default_reuse;
  return hls::compile(model, cfg);
}

TEST(ResourceModel, PaperCliff18BitsExceedsDevice) {
  const hls::ResourceModel rm;
  const auto r18 = rm.estimate(unet_firmware({18, 10}));
  const auto r16 = rm.estimate(unet_firmware({16, 7}));
  EXPECT_GT(r18.alut_utilization(), 1.0);   // paper: 115%
  EXPECT_LT(r16.alut_utilization(), 0.45);  // paper: 22%
  EXPECT_FALSE(r18.fits());
  EXPECT_TRUE(r16.fits());
}

TEST(ResourceModel, DspCountNearPaper) {
  const hls::ResourceModel rm;
  const auto r = rm.estimate(unet_firmware({16, 7}));
  EXPECT_NEAR(static_cast<double>(r.total_dsps), 273.0, 120.0);  // Table III
  EXPECT_LT(r.dsp_utilization(), 0.5);
}

TEST(ResourceModel, MonotonicInReuse) {
  const hls::ResourceModel rm;
  double prev = 1e18;
  for (std::size_t reuse : {8u, 16u, 32u, 64u, 128u}) {
    const auto r = rm.estimate(unet_firmware({16, 7}, reuse));
    EXPECT_LT(r.alut_utilization(), prev) << "reuse " << reuse;
    prev = r.alut_utilization();
  }
}

TEST(ResourceModel, RamBlocksTrackPartitions) {
  const hls::ResourceModel rm;
  const auto fw = unet_firmware({16, 7});
  std::size_t mults = 0;
  for (const auto& l : fw.layers) mults += l.instantiated_mults;
  const auto r = rm.estimate(fw);
  EXPECT_GE(r.total_ram_blocks, mults);  // one ROM partition per multiplier
}

TEST(ResourceModel, CycloneIsSmallerThanArria) {
  const auto arria = hls::DeviceSpec::arria10_sx660();
  const auto cyclone = hls::DeviceSpec::cyclone5();
  EXPECT_GT(arria.aluts, cyclone.aluts);
  EXPECT_GT(arria.dsp_blocks, cyclone.dsp_blocks);
}

// ---------------------------------------------------------------- latency

TEST(LatencyModel, MonotonicInReuse) {
  const hls::LatencyModel lm;
  std::size_t prev = 0;
  for (std::size_t reuse : {8u, 16u, 32u, 64u}) {
    const auto rep = lm.estimate(unet_firmware({16, 7}, reuse));
    EXPECT_GT(rep.total_cycles, prev) << "reuse " << reuse;
    prev = rep.total_cycles;
  }
}

TEST(LatencyModel, UNetIpLatencyNearPaper) {
  const auto rep = hls::LatencyModel().estimate(unet_firmware({16, 7}));
  // Paper: 1.57 ms FPGA IP latency at 100 MHz; accept the model within ~25%.
  EXPECT_GT(rep.total_ms(), 1.1);
  EXPECT_LT(rep.total_ms(), 2.0);
}

TEST(LatencyModel, IoCyclesMatchWordCounts) {
  const auto fw = unet_firmware({16, 7});
  const auto rep = hls::LatencyModel().estimate(fw);
  EXPECT_EQ(rep.io_cycles, fw.input_values + fw.output_values);
  EXPECT_EQ(rep.total_cycles, rep.compute_cycles + rep.io_cycles);
}

TEST(LatencyModel, ClockScalesTime) {
  auto fw = unet_firmware({16, 7});
  fw.config.clock_mhz = 200.0;
  const auto rep = hls::LatencyModel().estimate(fw);
  EXPECT_NEAR(rep.total_ms() * 2.0,
              static_cast<double>(rep.total_cycles) / 1e5, 1e-9);
}

// ---------------------------------------------------------------- accuracy

TEST(Accuracy, PerfectModelScoresOne) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 29);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(random_frame({16, 1}, 600u + static_cast<unsigned>(i)));
  const auto prof = hls::profile_model(model, inputs);
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, prof, 20);
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto rep = hls::evaluate_quantization(model, qm, inputs);
  EXPECT_EQ(rep.accuracy_mi, 1.0);
  EXPECT_EQ(rep.accuracy_rr, 1.0);
  EXPECT_EQ(rep.outliers_total(), 0u);
  EXPECT_EQ(rep.frames, 4u);
  EXPECT_EQ(rep.outputs_per_channel, 64u);
}

// Sigmoid LUT must be monotone non-decreasing for every activation width —
// a property sweep in the spirit of the paper's bit-width scans.
class SigmoidLutSweep : public ::testing::TestWithParam<int> {};

TEST_P(SigmoidLutSweep, MonotoneAndBounded) {
  const int bits = GetParam();
  nn::Model model("in", {1, 1});
  model.add("s", std::make_unique<nn::Sigmoid>(), {"in"});
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({bits, 6});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  float prev = -1.0f;
  for (double x = -10.0; x <= 10.0; x += 0.25) {
    const auto out = qm.forward(Tensor::from({1, 1}, {static_cast<float>(x)}));
    EXPECT_GE(out[0], prev - 1e-6) << "x=" << x << " bits=" << bits;
    EXPECT_GE(out[0], 0.0f);
    EXPECT_LE(out[0], 1.0f);
    prev = out[0];
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SigmoidLutSweep,
                         ::testing::Values(10, 12, 14, 16, 18));

TEST(QuantizedModel, ForwardIsDeterministic) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 41);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 8});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto in = random_frame({16, 1}, 42);
  EXPECT_EQ(tensor::max_abs_diff(qm.forward(in), qm.forward(in)), 0.0f);
}

hls::QuantizedModel small_unet_model() {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 47);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(random_frame({16, 1}, 600u + static_cast<unsigned>(i)));
  }
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, hls::profile_model(model, calib),
                                      16);
  return hls::QuantizedModel(hls::compile(model, cfg));
}

// The small U-Net with one activation widened past 16 bits: its slab, and
// the MaxPool and Concatenate input reading it, stay int64 while the rest
// of the frame passes int16.
hls::QuantizedModel mixed_width_unet_model() {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 47);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(random_frame({16, 1}, 600u + static_cast<unsigned>(i)));
  }
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, hls::profile_model(model, calib),
                                      16);
  auto wide = cfg.quant.layer("enc2b_relu");
  wide.activation = {24, wide.activation.int_bits};
  cfg.quant.per_layer["enc2b_relu"] = wide;
  return hls::QuantizedModel(hls::compile(model, cfg));
}

// Every format 24 bits wide: every slab is int64 and every MAC layer wide.
hls::QuantizedModel wide_unet_model() {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 43);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({24, 9});
  return hls::QuantizedModel(hls::compile(model, cfg));
}

hls::QuantizedModel overflowing_mlp_model() {
  auto model = nn::build_mlp({.inputs = 6, .hidden = 5, .outputs = 3});
  nn::init_he_uniform(model, 53);
  // He-uniform weights are too tame to wrap the <16,7> accumulator ring;
  // inflate them so hot frames genuinely overflow.
  for (auto* p : model.parameters()) {
    for (auto& v : p->flat()) v *= 12.0f;
  }
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 7});
  return hls::QuantizedModel(hls::compile(model, cfg));
}

hls::QuantizedModel deployed_shape_unet_model() {
  auto model = nn::build_unet();
  nn::init_he_uniform(model, 61);
  const std::vector<Tensor> calib = {random_frame({260, 1}, 62, 4.0),
                                     random_frame({260, 1}, 63, 4.0)};
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, hls::profile_model(model, calib),
                                      16);
  cfg.reuse = hls::ReusePolicy::deployed_unet();
  return hls::QuantizedModel(hls::compile(model, cfg));
}

// The scratch-arena executor with blocked kernels must be bit-identical to
// the seed per-layer-vector implementation: same raw output words AND same
// per-layer saturation/overflow counts (int64 accumulation is exact, so
// reassociating the adds cannot change any finalize result).
TEST(QuantizedModel, FastPathBitIdenticalToReference) {
  const hls::QuantizedModel qm = small_unet_model();
  for (int f = 0; f < 6; ++f) {
    // Large-scale frames provoke saturations so the stats comparison bites.
    const double scale = f < 3 ? 1.0 : 25.0;
    const auto raw = qm.quantize_input(
        random_frame({16, 1}, 700u + static_cast<unsigned>(f), scale));
    hls::ForwardStats fast_stats;
    hls::ForwardStats ref_stats;
    const auto fast = qm.forward_raw(raw, &fast_stats);
    const auto ref = qm.forward_raw_reference(raw, &ref_stats);
    EXPECT_EQ(fast, ref) << "frame " << f;
    EXPECT_EQ(fast_stats.saturations, ref_stats.saturations) << "frame " << f;
    EXPECT_EQ(fast_stats.overflows, ref_stats.overflows) << "frame " << f;
  }
}

TEST(QuantizedModel, FastPathBitIdenticalOnOverflowingMlp) {
  // Narrow accumulator + hot inputs: wrap-around overflows must be counted
  // identically by the blocked Dense kernel and the reference loop.
  const hls::QuantizedModel qm = overflowing_mlp_model();
  std::size_t total_overflows = 0;
  for (int f = 0; f < 4; ++f) {
    const auto raw = qm.quantize_input(
        random_frame({1, 6}, 800u + static_cast<unsigned>(f), 8.0));
    hls::ForwardStats fast_stats;
    hls::ForwardStats ref_stats;
    EXPECT_EQ(qm.forward_raw(raw, &fast_stats),
              qm.forward_raw_reference(raw, &ref_stats));
    EXPECT_EQ(fast_stats.overflows, ref_stats.overflows);
    EXPECT_EQ(fast_stats.saturations, ref_stats.saturations);
    total_overflows += fast_stats.total_overflows();
  }
  EXPECT_GT(total_overflows, 0u);  // the comparison actually exercised wraps
}

// Fill the calling thread's scratch arena with nonzero activation-sized
// words, so a kernel that leaves part of its slab unwritten, or a slab the
// plan lets a live one overlap, reads garbage instead of a previous frame's
// identical values.
void poison_arena(const hls::QuantizedModel& qm, std::uint64_t seed) {
  const auto fp = qm.arena_footprint();
  const std::size_t words = (fp.act_bytes + fp.scratch_bytes) / 8;
  auto& arena = util::ScratchArena::local();
  util::ArenaScope scope(arena);
  arena.require<std::int64_t>(words);
  util::Xoshiro256 rng(seed);
  for (auto& w : arena.alloc<std::int64_t>(words)) {
    w = static_cast<std::int64_t>(rng() % 2000) - 1000;
    if (w == 0) w = 1;
  }
}

// Layers' slabs share arena bytes, and the arena keeps whatever the last
// frame left there: with it poisoned before every frame and models with
// different plans alternating on one thread, the fast path must still match
// the reference executor in raw words and ForwardStats. The models cover
// int16 slabs with nonzero lists, int64 slabs next to int16 ones, and a
// frame of int64 slabs only.
TEST(QuantizedModel, FastPathPoisonedArenaMatchesReference) {
  const hls::QuantizedModel small = small_unet_model();
  const hls::QuantizedModel mlp = overflowing_mlp_model();
  const hls::QuantizedModel deployed = deployed_shape_unet_model();
  const hls::QuantizedModel mixed = mixed_width_unet_model();
  const hls::QuantizedModel wide = wide_unet_model();
  const hls::QuantizedModel* models[] = {&small, &mlp, &deployed, &mixed,
                                         &wide};
  EXPECT_GT(deployed.lanes().narrow_layers, 0u);
  EXPECT_GT(small.lanes().narrow_layers, 0u);
  const auto elem_bytes = [](const hls::QuantizedModel& qm, std::size_t e) {
    std::size_t n = 0;
    for (const auto& s : qm.arena_footprint().slabs) {
      n += static_cast<std::size_t>(s.bytes > 0 && s.elem_bytes == e);
    }
    return n;
  };
  EXPECT_GT(elem_bytes(mixed, 8), 0u);
  EXPECT_GT(elem_bytes(mixed, 2), 0u);
  EXPECT_EQ(elem_bytes(wide, 2), 0u);
  EXPECT_EQ(elem_bytes(deployed, 8), 0u);
  std::size_t total_overflows = 0;
  std::size_t total_saturations = 0;
  for (unsigned f = 0; f < 20; ++f) {
    const auto& qm = *models[f % std::size(models)];
    const auto& shape = qm.firmware().layers.front();
    const double scale = f < 10 ? 1.0 : 25.0;
    const auto in =
        random_frame({shape.positions, shape.out_channels}, 1000u + f, scale);
    const auto raw = qm.quantize_input(in);
    hls::ForwardStats fast_stats;
    hls::ForwardStats ref_stats;
    poison_arena(qm, 2000u + f);
    const auto fast = qm.forward_raw(raw, &fast_stats);
    const auto ref = qm.forward_raw_reference(raw, &ref_stats);
    EXPECT_EQ(fast, ref) << "frame " << f;
    EXPECT_EQ(fast_stats.saturations, ref_stats.saturations) << "frame " << f;
    EXPECT_EQ(fast_stats.overflows, ref_stats.overflows) << "frame " << f;
    poison_arena(qm, 3000u + f);
    Tensor out;
    qm.forward_into(in, out);
    EXPECT_EQ(tensor::max_abs_diff(out, qm.dequantize_output(ref)), 0.0f)
        << "frame " << f;
    total_overflows += ref_stats.total_overflows();
    total_saturations += ref_stats.total_saturations();
  }
  EXPECT_GT(total_overflows, 0u);
  EXPECT_GT(total_saturations, 0u);
}

// Last reader of each layer's value in the firmware graph; the output's
// runs to the end of the frame. UpSampling and Concatenate layers read no
// slab: their inputs' producers write their values, so they do not count.
std::vector<std::size_t> slab_last_step(const hls::FirmwareModel& fw) {
  std::vector<std::size_t> last(fw.layers.size());
  for (std::size_t i = 0; i < fw.layers.size(); ++i) {
    last[i] = i;
    const auto kind = fw.layers[i].kind;
    if (kind == hls::LayerKind::kUpSample || kind == hls::LayerKind::kConcat) {
      continue;
    }
    for (const std::size_t j : fw.layers[i].inputs) {
      last[j] = std::max(last[j], i);
    }
  }
  last.back() = std::numeric_limits<std::size_t>::max();
  return last;
}

TEST(QuantizedModel, ArenaPlanKeepsLiveSlabsApart) {
  const hls::QuantizedModel unet = deployed_shape_unet_model();
  const hls::QuantizedModel mlp = overflowing_mlp_model();
  const hls::QuantizedModel mixed = mixed_width_unet_model();
  const hls::QuantizedModel wide = wide_unet_model();
  const auto round64 = [](std::size_t b) { return (b + 63) / 64 * 64; };
  for (const auto* qm : {&unet, &mlp, &mixed, &wide}) {
    const auto& layers = qm->firmware().layers;
    const auto& ranges = qm->lanes().ranges;
    const auto fp = qm->arena_footprint();
    ASSERT_EQ(fp.slabs.size(), layers.size());
    const auto last = slab_last_step(qm->firmware());
    const auto live_at = [&](std::size_t i, std::size_t t) {
      return fp.slabs[i].bytes > 0 && fp.slabs[i].first <= t &&
             t <= fp.slabs[i].last;
    };
    ASSERT_GT(fp.slabs.back().bytes, 0u);
    EXPECT_EQ(fp.slabs.back().last, std::numeric_limits<std::size_t>::max());
    std::size_t max_live = 0;
    // Every slab appended after the last: what the block would take
    // without the liveness plan.
    std::size_t unplanned = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto& s = fp.slabs[i];
      const auto& l = layers[i];
      unplanned += s.bytes;
      if (l.kind == hls::LayerKind::kDense ||
          l.kind == hls::LayerKind::kConv1D) {
        // A MAC layer reads its source's slab, with nonzero lists when it
        // runs the narrow lane.
        const auto& src = fp.slabs[l.inputs[0]];
        EXPECT_GT(src.bytes, 0u) << l.name;
        if (qm->lanes().decisions[i].lane == hls::Lane::kNarrow32) {
          EXPECT_TRUE(src.lists) << l.name;
        }
      }
      std::size_t live = 0;
      for (std::size_t j = 0; j < layers.size(); ++j) {
        if (live_at(j, i)) live += fp.slabs[j].bytes;
      }
      max_live = std::max(max_live, live);
      if (s.bytes == 0) continue;
      // Element type by the proven range; size in bytes by element type:
      // values, then lists and list lengths, each part 64-byte rounded.
      const bool i16 = ranges[i].lo >= std::numeric_limits<std::int16_t>::min() &&
                       ranges[i].hi <= std::numeric_limits<std::int16_t>::max();
      EXPECT_EQ(s.elem_bytes, i16 ? 2u : 8u) << l.name;
      EXPECT_TRUE(!s.lists || s.elem_bytes == 2u) << l.name;
      const std::size_t n = l.positions * l.out_channels;
      EXPECT_EQ(s.bytes, round64(n * s.elem_bytes) +
                             (s.lists ? round64(2 * n) + round64(2 * l.positions)
                                      : 0))
          << l.name;
      EXPECT_LE(s.offset + s.bytes, fp.act_bytes) << l.name;
      // Live from a step no later than the layer's own to its last reader.
      EXPECT_LE(s.first, i) << l.name;
      EXPECT_GE(s.last, last[i]) << l.name;
      for (std::size_t j = 0; j < layers.size(); ++j) {
        const auto& o = fp.slabs[j];
        if (j == i || o.bytes == 0 || o.last < s.first || s.last < o.first) {
          continue;
        }
        // Overlapping lifetimes, which include every slab still live when
        // the output is written, since the output's never ends: no shared
        // byte, so the output slab is never reused.
        const bool disjoint = s.offset + s.bytes <= o.offset ||
                              o.offset + o.bytes <= s.offset;
        EXPECT_TRUE(disjoint) << l.name << " / " << layers[j].name;
      }
    }
    EXPECT_GE(fp.act_bytes, max_live);
    EXPECT_LT(fp.act_bytes, unplanned);
    if (qm == &unet) {
      // The deployed graph: every format is 16 bits, so every slab is
      // int16; fused ReLUs' producers, the UpSamplings and the
      // Concatenates' inputs that only feed placement keep no slab.
      for (const char* fused : {"enc1a", "bot_b", "up1", "up2", "dec2b_relu"}) {
        const auto at = static_cast<std::size_t>(
            std::find_if(layers.begin(), layers.end(),
                         [&](const auto& l) { return l.name == fused; }) -
            layers.begin());
        ASSERT_LT(at, layers.size()) << fused;
        EXPECT_EQ(fp.slabs[at].bytes, 0u) << fused;
      }
      EXPECT_EQ(fp.act_bytes, max_live);
      EXPECT_EQ(fp.act_bytes, 226688u);  // 28,336 words
    }
  }
}

TEST(QuantizedModel, ProfiledForwardCountsMacInputsBeforeEachLayer) {
  const hls::QuantizedModel qm = small_unet_model();
  const auto& layers = qm.firmware().layers;
  std::vector<double> ns(layers.size(), 0.0);
  std::vector<hls::MacInputs> mac(layers.size());
  std::uint64_t input_nonzero = 0;
  for (unsigned f = 0; f < 4; ++f) {
    auto raw = qm.quantize_input(
        random_frame({16, 1}, 1100u + f, f < 2 ? 1.0 : 25.0));
    for (std::size_t q = f; q < raw.size(); q += 3) raw[q] = 0;
    input_nonzero += static_cast<std::uint64_t>(
        raw.size() - static_cast<std::size_t>(
                         std::count(raw.begin(), raw.end(), std::int64_t{0})));
    EXPECT_EQ(qm.forward_raw_profiled(raw, ns, mac),
              qm.forward_raw_reference(raw))
        << "frame " << f;
  }
  // Recorded when sparsity was still counted after the frame, over the
  // whole unplanned arena; counting before each layer must not move them.
  struct Pin {
    const char* layer;
    hls::MacInputs in;
  };
  const Pin pins[] = {
      {"enc1a", {64, 43, 552, 124}},   {"enc1b", {192, 95, 1656, 271}},
      {"enc2a", {96, 84, 1056, 231}},  {"enc2b", {128, 87, 1408, 238}},
      {"bot_a", {64, 47, 800, 117}},   {"bot_b", {80, 21, 1000, 53}},
      {"dec2a", {288, 166, 3168, 460}}, {"dec2b", {128, 72, 1408, 193}},
      {"dec1a", {448, 263, 3864, 755}}, {"dec1b", {192, 97, 1656, 278}},
      {"head", {192, 120, 384, 120}},
  };
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    hls::MacInputs want;
    for (const auto& p : pins) {
      if (layers[i].name != p.layer) continue;
      want = p.in;
      ++pinned;
    }
    EXPECT_EQ(mac[i].inputs, want.inputs) << layers[i].name;
    EXPECT_EQ(mac[i].nonzero_inputs, want.nonzero_inputs) << layers[i].name;
    EXPECT_EQ(mac[i].macs, want.macs) << layers[i].name;
    EXPECT_EQ(mac[i].listed_terms, want.listed_terms) << layers[i].name;
  }
  EXPECT_EQ(pinned, std::size(pins));
  // The first MAC layer reads the raw input itself.
  EXPECT_EQ(layers[1].inputs, std::vector<std::size_t>{0});
  EXPECT_EQ(mac[1].nonzero_inputs, input_nonzero);
  EXPECT_EQ(ns[0], 0.0);
}

// dec2b's ReLU runs in dec2b's write-out, and dec2b_relu -> up1 -> cat1
// is placed by that write-out too. The ReLU keeps one int bit fewer than
// dec2b and cat1 two fewer than up1, so both requants widen and saturate
// on hot frames. Each
// count must land on its own layer index: dec2b's wraps and saturations,
// then the ReLU's, then the UpSampling's and the Concatenate's, each as
// the reference executor counts it (pinned from it).
TEST(QuantizedModel, FusedWriteOutCountsEachLayerAtItsIndex) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 47);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(random_frame({16, 1}, 600u + static_cast<unsigned>(i)));
  }
  hls::HlsConfig cfg;
  cfg.quant = hls::layer_based_config(model, hls::profile_model(model, calib),
                                      16);
  auto cat = cfg.quant.layer("cat1");
  cat.activation.int_bits = cfg.quant.layer("up1").activation.int_bits - 2;
  cfg.quant.per_layer["cat1"] = cat;
  auto act = cfg.quant.layer("dec2b_relu");
  act.activation.int_bits = cfg.quant.layer("dec2b").activation.int_bits - 1;
  cfg.quant.per_layer["dec2b_relu"] = act;
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto& layers = qm.firmware().layers;
  const auto at = [&](const char* name) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].name == name) return i;
    }
    ADD_FAILURE() << name;
    return std::size_t{0};
  };
  const std::size_t mac = at("dec2b");
  const std::size_t relu = at("dec2b_relu");
  const std::size_t up = at("up1");
  const std::size_t concat = at("cat1");
  const auto& slabs = qm.arena_footprint().slabs;
  EXPECT_EQ(slabs[mac].bytes, 0u);
  EXPECT_EQ(slabs[relu].bytes, 0u);
  EXPECT_EQ(slabs[up].bytes, 0u);
  EXPECT_GT(slabs[concat].bytes, 0u);
  hls::ForwardStats fast;
  hls::ForwardStats ref;
  for (unsigned f = 0; f < 6; ++f) {
    const auto raw = qm.quantize_input(random_frame({16, 1}, 1200u + f, 25.0));
    EXPECT_EQ(qm.forward_raw(raw, &fast), qm.forward_raw_reference(raw, &ref))
        << "frame " << f;
  }
  EXPECT_EQ(fast.saturations, ref.saturations);
  EXPECT_EQ(fast.overflows, ref.overflows);
  EXPECT_EQ(ref.overflows[mac], 12u);
  EXPECT_EQ(ref.saturations[mac], 0u);
  EXPECT_EQ(ref.saturations[relu], 32u);
  EXPECT_EQ(ref.saturations[up], 0u);
  EXPECT_EQ(ref.saturations[concat], 233u);
}

// A graph the U-Net does not have, for the write-out planner's other
// cases: an UpSampling read by a Concatenate (twice: two sinks appending
// to one slab's lists, which takes the portable write-out) and by a ReLU
// step, so its requant is one stage that two sinks share and must count
// once; a Concatenate feeding another UpSampling; a MaxPool nothing reads;
// and requants that saturate on hot frames.
TEST(QuantizedModel, FastPathMatchesReferenceOnFusionEdgeCases) {
  nn::Model model("in", {8, 2});
  model.add("c1", std::make_unique<nn::Conv1D>(2, 5, 3), {"in"});
  model.add("c1_relu", std::make_unique<nn::ReLU>());
  model.add("up", std::make_unique<nn::UpSampling1D>(2), {"c1_relu"});
  model.add("cat", std::make_unique<nn::Concatenate>(), {"up", "up"});
  model.add("up_relu", std::make_unique<nn::ReLU>(), {"up"});
  model.add("dead", std::make_unique<nn::MaxPool1D>(2), {"up_relu"});
  model.add("c2", std::make_unique<nn::Conv1D>(10, 3, 3), {"cat"});
  model.add("cat2", std::make_unique<nn::Concatenate>(), {"c2", "up_relu"});
  model.add("up2", std::make_unique<nn::UpSampling1D>(2), {"cat2"});
  model.add("c3", std::make_unique<nn::Conv1D>(8, 2, 1), {"up2"});
  nn::init_he_uniform(model, 71);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 6});
  // The UpSampling keeps two int bits fewer than c1_relu and cat one more
  // than up: `up`'s requant widens and saturates, and cat's rounds.
  cfg.quant.per_layer["up"] = {{16, 6}, {16, 6}, {16, 4}};
  cfg.quant.per_layer["cat"] = {{16, 6}, {16, 6}, {16, 5}};
  cfg.quant.per_layer["up2"] = {{16, 6}, {16, 6}, {16, 3}};
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  const auto& layers = qm.firmware().layers;
  const auto& slabs = qm.arena_footprint().slabs;
  const auto at = [&](const char* name) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].name == name) return i;
    }
    ADD_FAILURE() << name;
    return std::size_t{0};
  };
  EXPECT_EQ(slabs[at("c1")].bytes, 0u);  // its ReLU is fused
  EXPECT_EQ(qm.lanes().decisions[at("c2")].lane, hls::Lane::kNarrow32);
  EXPECT_TRUE(slabs[at("cat")].lists);
  EXPECT_GT(slabs[at("up")].bytes, 0u);  // up_relu reads it
  EXPECT_GT(slabs[at("dead")].bytes, 0u);
  EXPECT_GT(slabs[at("up2")].bytes, 0u);  // c3 reads it
  hls::ForwardStats fast;
  hls::ForwardStats ref;
  for (unsigned f = 0; f < 8; ++f) {
    const auto raw = qm.quantize_input(
        random_frame({8, 2}, 1300u + f, f < 4 ? 1.0 : 25.0));
    EXPECT_EQ(qm.forward_raw(raw, &fast), qm.forward_raw_reference(raw, &ref))
        << "frame " << f;
  }
  EXPECT_EQ(fast.saturations, ref.saturations);
  EXPECT_EQ(fast.overflows, ref.overflows);
  EXPECT_GT(ref.saturations[at("up")], 0u);
  EXPECT_GT(ref.saturations[at("up2")], 0u);
}

TEST(QuantizedModel, RejectsUpSamplingRowsOtherThanFactorTimesSource) {
  // The write-out replicates each source row `factor` times and writes
  // nothing else, so a firmware UpSampling with any other row count is
  // refused at construction instead of leaving rows unwritten.
  nn::Model model("in", {8, 2});
  model.add("c1", std::make_unique<nn::Conv1D>(2, 5, 3), {"in"});
  model.add("up", std::make_unique<nn::UpSampling1D>(2), {"c1"});
  model.add("c2", std::make_unique<nn::Conv1D>(5, 2, 1), {"up"});
  nn::init_he_uniform(model, 73);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 6});
  const hls::FirmwareModel fw = hls::compile(model, cfg);
  EXPECT_NO_THROW(hls::QuantizedModel{fw});
  for (const std::size_t extra : {std::size_t{1}, std::size_t{2}}) {
    hls::FirmwareModel bad = fw;
    for (auto& l : bad.layers) {
      if (l.kind == hls::LayerKind::kUpSample) l.positions += extra;
    }
    try {
      const hls::QuantizedModel qm(std::move(bad));
      ADD_FAILURE() << "accepted " << extra << " extra rows";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("UpSampling up"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(QuantizedModel, ForwardBatchMatchesPerFrameForward) {
  auto model = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(model, 59);
  hls::HlsConfig cfg;
  cfg.quant = hls::QuantConfig::uniform({16, 8});
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  std::vector<Tensor> inputs;
  for (int i = 0; i < 9; ++i) {
    inputs.push_back(random_frame({16, 1}, 900u + static_cast<unsigned>(i), 4.0));
  }
  hls::ForwardStats batch_stats;
  const auto outs = qm.forward_batch(inputs, &batch_stats);
  ASSERT_EQ(outs.size(), inputs.size());
  hls::ForwardStats serial_stats;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto one = qm.forward(inputs[i], &serial_stats);
    EXPECT_EQ(tensor::max_abs_diff(outs[i], one), 0.0f) << i;
  }
  EXPECT_EQ(batch_stats.saturations, serial_stats.saturations);
  EXPECT_EQ(batch_stats.overflows, serial_stats.overflows);
}

TEST(ResourceModel, LayerBasedCostsSlightlyMoreThanUniformSameWidth) {
  // Alignment shifters between differently-scaled layers are the only
  // delta; they must exist but stay small (paper: 22% vs 31%).
  static auto model = [] {
    auto m = nn::build_unet();
    nn::init_he_uniform(m, 43);
    return m;
  }();
  std::vector<Tensor> calib = {random_frame({260, 1}, 44, 30.0)};
  const auto profile = hls::profile_model(model, calib);
  hls::HlsConfig uniform_cfg;
  uniform_cfg.quant = hls::QuantConfig::uniform({16, 7});
  uniform_cfg.reuse = hls::ReusePolicy::deployed_unet();
  hls::HlsConfig layered_cfg = uniform_cfg;
  layered_cfg.quant = hls::layer_based_config(model, profile, 16);
  const hls::ResourceModel rm;
  const auto u = rm.estimate(hls::compile(model, uniform_cfg));
  const auto l = rm.estimate(hls::compile(model, layered_cfg));
  EXPECT_GE(l.total_aluts, u.total_aluts);
  EXPECT_LT(static_cast<double>(l.total_aluts),
            static_cast<double>(u.total_aluts) * 1.6);
}

TEST(Accuracy, RequiresTwoChannelOutput) {
  auto model = nn::build_mlp({.inputs = 4, .hidden = 3, .outputs = 3});
  nn::init_he_uniform(model, 1);
  hls::HlsConfig cfg;
  const hls::QuantizedModel qm(hls::compile(model, cfg));
  std::vector<Tensor> inputs = {random_frame({1, 4}, 2)};
  EXPECT_THROW(hls::evaluate_quantization(model, qm, inputs),
               std::invalid_argument);
}

}  // namespace
