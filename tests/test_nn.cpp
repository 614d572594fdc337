// Layer and model-graph tests: hand-computed forward references, shape
// validation, serialization, builder parameter counts, and finite-difference
// gradient checks for every trainable layer (the property that really
// matters for the from-scratch trainer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"
#include "nn/layers/concat.hpp"
#include "nn/layers/conv1d.hpp"
#include "nn/layers/dense.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/pool.hpp"
#include "nn/layers/upsample.hpp"
#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using nn::Model;
using tensor::Tensor;

Tensor random_tensor(const std::vector<std::size_t>& shape,
                     std::uint64_t seed, double scale = 1.0) {
  util::Xoshiro256 rng(seed);
  Tensor t(shape);
  for (auto& v : t.flat()) v = static_cast<float>(scale * rng.normal());
  return t;
}

// ---------------------------------------------------------------- forward

TEST(Dense, HandComputedForward) {
  nn::Dense d(2, 2);
  d.weight() = Tensor::from({2, 2}, {1, 2, 3, 4});
  d.bias() = Tensor::from({2}, {0.5, -0.5});
  const auto x = Tensor::from({1, 2}, {1, 1});
  const Tensor* in[] = {&x};
  const auto y = d.forward(in, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Dense, AppliedPositionWise) {
  nn::Dense d(1, 1);
  d.weight() = Tensor::from({1, 1}, {2});
  d.bias() = Tensor::from({1}, {1});
  const auto x = Tensor::from({3, 1}, {1, 2, 3});
  const Tensor* in[] = {&x};
  const auto y = d.forward(in, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 7.0f);
}

TEST(Conv1D, HandComputedSamePadding) {
  nn::Conv1D c(1, 1, 3);
  c.weight() = Tensor::from({1, 3, 1}, {1, 2, 1});  // (out, k, in)
  c.bias() = Tensor::from({1}, {0});
  const auto x = Tensor::from({4, 1}, {1, 2, 3, 4});
  const Tensor* in[] = {&x};
  const auto y = c.forward(in, false);
  // same padding: y[p] = x[p-1] + 2 x[p] + x[p+1], zeros beyond edges
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 8.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 12.0f);
  EXPECT_FLOAT_EQ(y.at(3, 0), 11.0f);
}

TEST(Conv1D, RejectsEvenKernel) {
  EXPECT_THROW(nn::Conv1D(1, 1, 2), std::invalid_argument);
}

// ------------------------------------------ float kernels: bit identity

// A value in (-scale, scale): a signed 24-bit integer times 2^-23 times a
// power-of-two `scale`, so exact in float and made without libm or any
// multiply-add. The data is then the same bits under any compiler flags
// and C library.
float dyadic(util::Xoshiro256& rng, float scale) {
  const auto m = static_cast<std::int32_t>(rng() >> 40) - (1 << 23);
  return static_cast<float>(m) * 0x1p-23f * scale;
}

// The seed Conv1D loop nest, in the order every kernel variant must keep
// per output: y = bias; per tap, acc = 0 then acc += w * x over ascending
// inputs (a rounded multiply, then a rounded add); y += acc.
void conv1d_seed_order(const float* x, const float* w, const float* b,
                       float* y, std::size_t positions, std::size_t in_ch,
                       std::size_t out_ch, std::size_t k) {
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  const auto pos = static_cast<std::ptrdiff_t>(positions);
  for (std::ptrdiff_t p = 0; p < pos; ++p) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      float yo = b[o];
      for (std::size_t dk = 0; dk < k; ++dk) {
        const std::ptrdiff_t q = p + static_cast<std::ptrdiff_t>(dk) - pad;
        if (q < 0 || q >= pos) continue;
        const float* xq = x + static_cast<std::size_t>(q) * in_ch;
        const float* wk = w + (o * k + dk) * in_ch;
        float acc = 0.0f;
        for (std::size_t i = 0; i < in_ch; ++i) acc += wk[i] * xq[i];
        yo += acc;
      }
      y[static_cast<std::size_t>(p) * out_ch + o] = yo;
    }
  }
}

// Every shape class the dispatcher distinguishes: the blocked path (7
// positions), the transposed path, output counts around the 16-lane vector
// and 64-output register block edges, and the U-Net's own channel counts;
// both for the host's tap loop and for the portable one.
TEST(FloatKernels, Conv1dMatchesSeedOrderBitForBit) {
  util::Xoshiro256 rng(2026);
  const auto fill = [&rng](std::vector<float>& v) {
    for (auto& e : v) {
      // ReLU-fed layers see many exact zeros; keep some of both signs.
      const auto u = rng() % 20;
      e = u < 6 ? 0.0f : (u < 7 ? -0.0f : dyadic(rng, 1.0f));
    }
  };
  for (const std::size_t in_ch : {1u, 31u, 77u, 186u}) {
    for (const std::size_t out_ch :
         {4u, 15u, 16u, 17u, 31u, 46u, 64u, 65u, 140u}) {
      for (const std::size_t k : {1u, 3u, 5u}) {
        std::vector<float> w(out_ch * k * in_ch);
        std::vector<float> b(out_ch);
        fill(w);
        fill(b);
        for (const std::size_t positions : {7u, 8u, 65u, 260u}) {
          std::vector<float> x(positions * in_ch);
          fill(x);
          std::vector<float> want(positions * out_ch, 2.0f);
          conv1d_seed_order(x.data(), w.data(), b.data(), want.data(),
                            positions, in_ch, out_ch, k);
          std::vector<float> got(positions * out_ch, 1.0f);
          nn::kernels::conv1d_forward(x.data(), w.data(), b.data(),
                                      got.data(), positions, in_ch, out_ch, k);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << "in_ch " << in_ch << " out_ch " << out_ch << " k " << k
              << " positions " << positions << " variant "
              << nn::kernels::float_variant();
          std::fill(got.begin(), got.end(), 1.0f);
          nn::kernels::detail::conv1d_forward_scalar(
              x.data(), w.data(), b.data(), got.data(), positions, in_ch,
              out_ch, k);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << "in_ch " << in_ch << " out_ch " << out_ch << " k " << k
              << " positions " << positions << " variant scalar";
        }
      }
    }
  }
}

// Pins the bytes of every node output of the full-size U-Net for a seeded
// model and seeded inputs. The calibration profile, hence the layer-based
// precision plan and the compiled firmware, is a function of these bytes:
// a kernel that reorders or fuses (FMA) one multiply-add changes the hash.
TEST(FloatKernels, UNetForwardAllBytesPinned) {
  auto unet = nn::build_unet({});
  util::Xoshiro256 rng(4242);
  for (auto* p : unet.parameters()) {
    for (auto& w : p->flat()) w = dyadic(rng, 0.125f);
  }
  nn::Activations acts;
  Tensor x({260, 1});
  std::uint64_t h = util::kFnvOffset;
  for (int f = 0; f < 3; ++f) {
    for (auto& v : x.flat()) v = dyadic(rng, 4.0f);
    unet.forward_all_into(x, acts);
    for (const auto& t : acts.values) {
      h = util::fnv1a64(t.data(), t.numel() * sizeof(float), h);
    }
  }
  EXPECT_EQ(h, 0x54fd154ec4f3e76bULL) << std::hex << "0x" << h;
}

TEST(MaxPool1D, ForwardAndDivisibility) {
  nn::MaxPool1D p(2);
  const auto x = Tensor::from({4, 2}, {1, 8, 2, 7, 3, 6, 4, 5});
  const Tensor* in[] = {&x};
  const auto y = p.forward(in, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 6.0f);
  const std::vector<nn::Shape> bad = {{5, 2}};
  EXPECT_THROW(p.output_shape(bad), std::invalid_argument);
}

TEST(UpSampling1D, RepeatsPositions) {
  nn::UpSampling1D u(2);
  const auto x = Tensor::from({2, 1}, {3, 7});
  const Tensor* in[] = {&x};
  const auto y = u.forward(in, false);
  ASSERT_EQ(y.dim(0), 4u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 7.0f);
  EXPECT_FLOAT_EQ(y.at(3, 0), 7.0f);
}

TEST(Concatenate, ChannelAxis) {
  nn::Concatenate cat;
  const auto a = Tensor::from({2, 1}, {1, 2});
  const auto b = Tensor::from({2, 2}, {10, 11, 20, 21});
  const Tensor* in[] = {&a, &b};
  const auto y = cat.forward(in, false);
  ASSERT_EQ(y.dim(1), 3u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(y.at(1, 2), 21.0f);
}

TEST(Concatenate, RejectsMismatchedPositions) {
  nn::Concatenate cat;
  const std::vector<nn::Shape> bad = {{2, 1}, {3, 1}};
  EXPECT_THROW(cat.output_shape(bad), std::invalid_argument);
}

TEST(Activations, ReluAndSigmoidValues) {
  nn::ReLU relu;
  nn::Sigmoid sig;
  const auto x = Tensor::from({1, 3}, {-1, 0, 2});
  const Tensor* in[] = {&x};
  const auto yr = relu.forward(in, false);
  EXPECT_FLOAT_EQ(yr[0], 0.0f);
  EXPECT_FLOAT_EQ(yr[2], 2.0f);
  const auto ys = sig.forward(in, false);
  EXPECT_NEAR(ys[1], 0.5f, 1e-6);
  EXPECT_NEAR(ys[2], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
}

TEST(Flatten, ShapeOnly) {
  nn::Flatten f;
  const auto x = random_tensor({4, 3}, 1);
  const Tensor* in[] = {&x};
  const auto y = f.forward(in, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 12}));
  EXPECT_EQ(y[5], x[5]);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  nn::BatchNorm1D bn(1);
  bn.set_running_stats(Tensor::from({1}, {2.0f}), Tensor::from({1}, {4.0f}));
  const auto x = Tensor::from({2, 1}, {2, 6});
  const Tensor* in[] = {&x};
  const auto y = bn.forward(in, /*training=*/false);
  EXPECT_NEAR(y[0], 0.0f, 1e-3);
  EXPECT_NEAR(y[1], 4.0f / std::sqrt(4.001f), 1e-3);
}

TEST(BatchNorm, TrainingNormalizesOverPositions) {
  nn::BatchNorm1D bn(1);
  const auto x = Tensor::from({4, 1}, {1, 2, 3, 4});
  const Tensor* in[] = {&x};
  const auto y = bn.forward(in, /*training=*/true);
  double mean = 0.0;
  for (std::size_t i = 0; i < 4; ++i) mean += y[i];
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-5);
}

// ------------------------------------------------------------- model graph

std::unique_ptr<nn::Layer> relu() { return std::make_unique<nn::ReLU>(); }

TEST(Model, SkipConnectionFanOutAccumulatesGradients) {
  // x -> a (identity-ish relu) feeds both b and concat; gradient w.r.t. a
  // must be the sum of both consumers' contributions.
  Model m("in", {2, 1});
  m.add("a", relu(), {"in"});
  m.add("b", relu(), {"a"});
  m.add("cat", std::make_unique<nn::Concatenate>(), {"a", "b"});
  const auto x = Tensor::from({2, 1}, {1, 2});
  const auto acts = m.forward_all(x);
  nn::GradStore store(m.parameter_shapes());
  Tensor gout(acts.output().shape());
  gout.fill(1.0f);
  m.backward(acts, gout, store);
  // No params, but the pass must not crash and output must be the concat.
  EXPECT_EQ(acts.output().dim(1), 2u);
}

// Model::forward runs over per-thread scratch Activations and the blocked
// kernels reuse the scratch arena; interleaving differently-shaped models on
// the same thread must not leak state between them, and results must match
// the allocating forward_all path exactly.
TEST(Model, ScratchForwardMatchesForwardAllAcrossModels) {
  auto unet = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(unet, 91);
  auto mlp = nn::build_mlp({.inputs = 8, .hidden = 5, .outputs = 2});
  nn::init_he_uniform(mlp, 92);
  for (int i = 0; i < 3; ++i) {
    const auto xu = random_tensor({16, 1}, 930u + static_cast<unsigned>(i));
    const auto xm = random_tensor({1, 8}, 960u + static_cast<unsigned>(i));
    const auto yu = unet.forward(xu);
    const auto ym = mlp.forward(xm);
    EXPECT_EQ(tensor::max_abs_diff(yu, unet.forward_all(xu).output()), 0.0f);
    EXPECT_EQ(tensor::max_abs_diff(ym, mlp.forward_all(xm).output()), 0.0f);
  }
}

TEST(Model, ForwardBatchMatchesPerFrame) {
  auto unet = nn::build_unet({.monitors = 16, .c1 = 3, .c2 = 4, .c3 = 5});
  nn::init_he_uniform(unet, 93);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 7; ++i) {
    inputs.push_back(random_tensor({16, 1}, 970u + static_cast<unsigned>(i)));
  }
  const auto outs = unet.forward_batch(inputs);
  ASSERT_EQ(outs.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(outs[i], unet.forward(inputs[i])), 0.0f)
        << i;
  }
}

TEST(Model, RejectsDuplicateAndUnknownNames) {
  Model m("in", {2, 1});
  m.add("a", relu(), {"in"});
  EXPECT_THROW(m.add("a", relu(), {"in"}), std::invalid_argument);
  EXPECT_THROW(m.add("b", relu(), {"nope"}), std::invalid_argument);
}

TEST(Model, RejectsWrongArity) {
  Model m("in", {2, 1});
  EXPECT_THROW(m.add("cat", std::make_unique<nn::Concatenate>(), {"in"}),
               std::invalid_argument);
}

TEST(Model, ForwardValidatesInputShape) {
  Model m("in", {2, 1});
  m.add("a", relu(), {"in"});
  EXPECT_THROW(m.forward(Tensor({3, 1})), std::invalid_argument);
}

TEST(Builders, UNetHasExactly134434Params) {
  const auto m = nn::build_unet();
  EXPECT_EQ(m.param_count(), 134'434u);
  EXPECT_EQ(nn::unet_param_count(nn::UNetConfig{}), 134'434u);
  EXPECT_EQ(m.input_shape(), (nn::Shape{260, 1}));
  EXPECT_EQ(m.output_shape(), (nn::Shape{260, 2}));
}

TEST(Builders, UNetParamFormulaMatchesGraph) {
  nn::UNetConfig cfg;
  cfg.c1 = 9;
  cfg.c2 = 73;
  cfg.c3 = 107;  // the other exact-134434 solution
  EXPECT_EQ(nn::build_unet(cfg).param_count(), nn::unet_param_count(cfg));
  EXPECT_EQ(nn::unet_param_count(cfg), 134'434u);
}

TEST(Builders, MlpMatchesStatedLayerSizes) {
  const auto m = nn::build_mlp();
  // 261*128 + 129*518; the paper reports 100,102 (see DESIGN.md §4).
  EXPECT_EQ(m.param_count(), 100'230u);
  EXPECT_EQ(m.output_shape(), (nn::Shape{1, 518}));
}

TEST(Builders, UNetWithBatchNormAddsTwoParams) {
  nn::UNetConfig cfg;
  cfg.input_batchnorm = true;
  EXPECT_EQ(nn::build_unet(cfg).param_count(), 134'436u);
}

TEST(Builders, RejectsIndivisibleMonitorCount) {
  nn::UNetConfig cfg;
  cfg.monitors = 258;
  EXPECT_THROW(nn::build_unet(cfg), std::invalid_argument);
}

TEST(Init, Uniform01PutsAllParamsInUnitInterval) {
  auto m = nn::build_mlp({.inputs = 8, .hidden = 4, .outputs = 2});
  nn::init_uniform01(m, 5);
  for (const auto* p : m.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      EXPECT_GE((*p)[i], 0.0f);
      EXPECT_LT((*p)[i], 1.0f);
    }
  }
}

TEST(Serialize, RoundTripPreservesWeightsAndBnStats) {
  nn::UNetConfig cfg;
  cfg.monitors = 16;
  cfg.c1 = 3;
  cfg.c2 = 4;
  cfg.c3 = 5;
  cfg.input_batchnorm = true;
  auto m = nn::build_unet(cfg);
  nn::init_he_uniform(m, 77);
  const std::string path = ::testing::TempDir() + "/weights.bin";
  nn::save_weights(m, path);
  auto m2 = nn::build_unet(cfg);
  nn::load_weights(m2, path);
  const auto x = random_tensor({16, 1}, 3);
  EXPECT_EQ(tensor::max_abs_diff(m.forward(x), m2.forward(x)), 0.0f);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto mlp = nn::build_mlp({.inputs = 8, .hidden = 4, .outputs = 2});
  nn::init_he_uniform(mlp, 1);
  const std::string path = ::testing::TempDir() + "/mlp.bin";
  nn::save_weights(mlp, path);
  auto other = nn::build_mlp({.inputs = 9, .hidden = 4, .outputs = 2});
  EXPECT_THROW(nn::load_weights(other, path), std::runtime_error);
}

// -------------------------------------------------- gradient verification

/// Finite-difference check of dLoss/dParam for a model, with
/// Loss = sum(coeff .* output). `training` must match between the analytic
/// backward and the numeric re-evaluation (BatchNorm behaves differently).
/// `allowed_kink_fraction` tolerates probes that land on ReLU kinks or
/// MaxPool ties, where the numeric two-sided difference straddles a
/// non-differentiable point and legitimately disagrees with any subgradient.
void check_gradients(Model& m, const Tensor& x, std::uint64_t seed,
                     double tol = 2e-2, bool training = false,
                     double allowed_kink_fraction = 0.0) {
  util::Xoshiro256 rng(seed);
  Tensor coeff(m.output_shape());
  for (auto& v : coeff.flat()) v = static_cast<float>(rng.normal());

  const auto loss_of = [&](const Tensor& input) {
    const auto y = m.forward_all(input, training).output();
    double l = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) l += coeff[i] * y[i];
    return l;
  };

  const auto acts = m.forward_all(x, training);
  nn::GradStore store(m.parameter_shapes());
  m.backward(acts, coeff, store);

  const float eps = 1e-3f;
  auto params = m.parameters();
  std::size_t probes = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    // Spot-check a handful of coordinates per tensor.
    for (std::size_t probe = 0; probe < std::min<std::size_t>(p.numel(), 6);
         ++probe) {
      const auto i = probe * (p.numel() / std::min<std::size_t>(p.numel(), 6));
      const float orig = p[i];
      p[i] = orig + eps;
      const double lp = loss_of(x);
      p[i] = orig - eps;
      const double lm = loss_of(x);
      p[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = store.tensors()[pi][i];
      ++probes;
      if (std::fabs(analytic - numeric) >
          tol * std::max({1.0, std::fabs(numeric), std::fabs(analytic)})) {
        ++mismatches;
        if (first_mismatch.empty()) {
          first_mismatch = "param tensor " + std::to_string(pi) + " index " +
                           std::to_string(i) + ": analytic " +
                           std::to_string(analytic) + " vs numeric " +
                           std::to_string(numeric);
        }
      }
    }
  }
  EXPECT_LE(static_cast<double>(mismatches),
            allowed_kink_fraction * static_cast<double>(probes))
      << mismatches << "/" << probes << " probes off; first: "
      << first_mismatch;
}

TEST(Gradients, Dense) {
  Model m("in", {3, 4});
  m.add("d", std::make_unique<nn::Dense>(4, 5), {"in"});
  nn::init_he_uniform(m, 21);
  check_gradients(m, random_tensor({3, 4}, 22), 23);
}

TEST(Gradients, Conv1D) {
  Model m("in", {8, 3});
  m.add("c", std::make_unique<nn::Conv1D>(3, 4, 3), {"in"});
  nn::init_he_uniform(m, 31);
  check_gradients(m, random_tensor({8, 3}, 32), 33);
}

// Regression guard for the 'same'-padding backward boundary handling: the
// `q < 0 || q >= positions` tap guard means the first/last positions see
// fewer taps than interior ones, and an off-by-one there corrupts exactly
// those rows' input gradients. k = 5 hangs two taps off each edge; every
// boundary row's dLoss/dInput must match a finite difference.
TEST(Gradients, Conv1DSamePaddingBoundaryInputGrad) {
  constexpr std::size_t positions = 6;
  constexpr std::size_t in_ch = 2;
  constexpr std::size_t out_ch = 3;
  constexpr std::size_t k = 5;
  nn::Conv1D conv(in_ch, out_ch, k);
  util::Xoshiro256 rng(81);
  for (auto* p : conv.params()) {
    for (auto& v : p->flat()) v = static_cast<float>(rng.normal() * 0.5);
  }
  Tensor x = random_tensor({positions, in_ch}, 82);
  Tensor coeff({positions, out_ch});
  for (auto& v : coeff.flat()) v = static_cast<float>(rng.normal());

  const auto loss_of = [&](const Tensor& input) {
    const Tensor* in_ptr = &input;
    const Tensor y = conv.forward({&in_ptr, 1}, /*training=*/false);
    double l = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) l += coeff[i] * y[i];
    return l;
  };

  const Tensor* x_ptr = &x;
  const Tensor y = conv.forward({&x_ptr, 1}, /*training=*/false);
  Tensor gx({positions, in_ch});
  auto params = conv.params();
  Tensor gw(params[0]->shape());
  Tensor gb(params[1]->shape());
  Tensor* grad_ins[] = {&gx};
  Tensor* param_grads[] = {&gw, &gb};
  conv.backward({&x_ptr, 1}, y, coeff, {grad_ins, 1}, {param_grads, 2});

  const float eps = 1e-3f;
  for (const std::size_t p : {std::size_t{0}, std::size_t{1},
                              positions - 2, positions - 1}) {
    for (std::size_t c = 0; c < in_ch; ++c) {
      const std::size_t i = p * in_ch + c;
      const float orig = x[i];
      x[i] = orig + eps;
      const double lp = loss_of(x);
      x[i] = orig - eps;
      const double lm = loss_of(x);
      x[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = gx[i];
      EXPECT_NEAR(analytic, numeric,
                  2e-2 * std::max({1.0, std::fabs(numeric)}))
          << "position " << p << " channel " << c;
    }
  }
}

TEST(Gradients, DenseReluChain) {
  Model m("in", {2, 4});
  m.add("d1", std::make_unique<nn::Dense>(4, 6), {"in"});
  m.add("r", relu());
  m.add("d2", std::make_unique<nn::Dense>(6, 3));
  nn::init_he_uniform(m, 41);
  check_gradients(m, random_tensor({2, 4}, 42), 43);
}

TEST(Gradients, SigmoidHead) {
  Model m("in", {2, 3});
  m.add("d", std::make_unique<nn::Dense>(3, 2), {"in"});
  m.add("s", std::make_unique<nn::Sigmoid>());
  nn::init_he_uniform(m, 51);
  check_gradients(m, random_tensor({2, 3}, 52), 53);
}

TEST(Gradients, PoolUpsampleConcat) {
  Model m("in", {8, 2});
  m.add("c1", std::make_unique<nn::Conv1D>(2, 3, 3), {"in"});
  m.add("p", std::make_unique<nn::MaxPool1D>(2));
  m.add("u", std::make_unique<nn::UpSampling1D>(2));
  m.add("cat", std::make_unique<nn::Concatenate>(), {"u", "c1"});
  m.add("c2", std::make_unique<nn::Conv1D>(6, 2, 3));
  nn::init_he_uniform(m, 61);
  check_gradients(m, random_tensor({8, 2}, 62), 63);
}

TEST(Gradients, BatchNormTrainingMode) {
  Model m("in", {6, 2});
  m.add("bn", std::make_unique<nn::BatchNorm1D>(2), {"in"});
  m.add("d", std::make_unique<nn::Dense>(2, 2));
  nn::init_he_uniform(m, 71);
  check_gradients(m, random_tensor({6, 2}, 72, 2.0), 73, 4e-2,
                  /*training=*/true);
}

TEST(Gradients, TinyUNetEndToEnd) {
  nn::UNetConfig cfg;
  cfg.monitors = 12;
  cfg.c1 = 2;
  cfg.c2 = 3;
  cfg.c3 = 4;
  auto m = nn::build_unet(cfg);
  nn::init_he_uniform(m, 81);
  // The narrow random net hits ReLU kinks / MaxPool ties on a few probes.
  check_gradients(m, random_tensor({12, 1}, 82), 83, 4e-2,
                  /*training=*/false, /*allowed_kink_fraction=*/0.2);
}

// ------------------------------------------- serialize: full round trips

TEST(Serialize, UNetRoundTripBitIdenticalAcrossEveryLayerType) {
  // input_batchnorm=true makes the graph exercise every layer type the
  // builders emit: BatchNorm, Conv1D, ReLU, MaxPool, UpSample, Concatenate,
  // and the Sigmoid head.
  nn::UNetConfig cfg;
  cfg.monitors = 16;
  cfg.c1 = 3;
  cfg.c2 = 4;
  cfg.c3 = 5;
  cfg.input_batchnorm = true;
  auto m = nn::build_unet(cfg);
  nn::init_he_uniform(m, 2024);
  const std::string path = ::testing::TempDir() + "/unet_rt.bin";
  nn::save_weights(m, path);

  auto m2 = nn::build_unet(cfg);
  nn::init_he_uniform(m2, 999);  // divergent start: the load must overwrite
  nn::load_weights(m2, path);
  EXPECT_EQ(nn::weights_hash(m2), nn::weights_hash(m));
  const auto x = random_tensor({16, 1}, 7);
  EXPECT_EQ(tensor::max_abs_diff(m.forward(x), m2.forward(x)), 0.0f);
}

TEST(Serialize, MlpRoundTripBitIdentical) {
  const nn::MlpConfig cfg{.inputs = 8, .hidden = 6, .outputs = 4};
  auto m = nn::build_mlp(cfg);
  nn::init_he_uniform(m, 31);
  const std::string path = ::testing::TempDir() + "/mlp_rt.bin";
  nn::save_weights(m, path);

  auto m2 = nn::build_mlp(cfg);
  nn::load_weights(m2, path);
  EXPECT_EQ(nn::weights_hash(m2), nn::weights_hash(m));
  const auto x = random_tensor({1, 8}, 11);
  EXPECT_EQ(tensor::max_abs_diff(m.forward(x), m2.forward(x)), 0.0f);
}

TEST(Serialize, CopyWeightsMakesForwardBitIdentical) {
  nn::UNetConfig cfg;
  cfg.monitors = 16;
  cfg.c1 = 3;
  cfg.c2 = 4;
  cfg.c3 = 5;
  auto src = nn::build_unet(cfg);
  nn::init_he_uniform(src, 5);
  auto dst = nn::build_unet(cfg);
  nn::init_he_uniform(dst, 6);
  ASSERT_NE(nn::weights_hash(src), nn::weights_hash(dst));

  nn::copy_weights(src, dst);
  EXPECT_EQ(nn::weights_hash(dst), nn::weights_hash(src));
  const auto x = random_tensor({16, 1}, 9);
  EXPECT_EQ(tensor::max_abs_diff(src.forward(x), dst.forward(x)), 0.0f);
}

TEST(Serialize, CopyWeightsRejectsArchitectureMismatch) {
  auto mlp = nn::build_mlp({.inputs = 8, .hidden = 4, .outputs = 2});
  auto other = nn::build_mlp({.inputs = 9, .hidden = 4, .outputs = 2});
  EXPECT_THROW(nn::copy_weights(mlp, other), std::runtime_error);
}

TEST(Serialize, WeightsHashSensitiveToSingleParamFlip) {
  auto m = nn::build_mlp({.inputs = 8, .hidden = 4, .outputs = 2});
  nn::init_he_uniform(m, 17);
  const auto before = nn::weights_hash(m);
  auto params = m.parameters();
  ASSERT_FALSE(params.empty());
  params.back()->data()[0] += 1.0f;
  EXPECT_NE(nn::weights_hash(m), before);
}

}  // namespace
