// Hot-path kernel benchmark: quantized U-Net forward through the blocked
// transposed-weight kernels (forward_raw) vs the seed per-output reference
// executor (forward_raw_reference), plus the float path and the batched
// API, with bit-identity of outputs and ForwardStats asserted while timing.
//
//   ./bench_kernels [--frames=32] [--reps=9] [--warmup=2] [--seed=17]
//                   [--out=BENCH_kernels.json] [--min_speedup=1.5]
//                   [--min_narrow_fraction=0.0]
//
// Emits one JSON object (schema documented in DESIGN.md §5b) to stdout and
// to --out, with one row per firmware layer timed through
// forward_raw_profiled; exits non-zero if the fast path diverges from the
// reference, the speedup falls below --min_speedup, fewer than
// --min_narrow_fraction of the MAC layers run on narrow lanes, or the
// per-layer rows do not sum to within 5% of the frame they split.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "hls/qkernels.hpp"
#include "nn/kernels.hpp"

namespace {

using namespace reads;

struct Timing {
  double best = 1e300;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Wall-clock seconds one call of `fn` takes.
template <typename Fn>
double seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best / mean / stddev of per-rep wall-clock seconds.
Timing summarize(const std::vector<double>& samples) {
  Timing t;
  for (double s : samples) {
    t.best = std::min(t.best, s);
    t.mean += s;
  }
  t.mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (double s : samples) var += (s - t.mean) * (s - t.mean);
  t.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return t;
}

/// Timing over `reps` invocations, after `warmup` untimed invocations (page
/// in weights, populate scratch arenas, settle the frequency governor — the
/// seed benchmark's single untimed call left the first timed rep carrying
/// warm-up noise at reps=2).
template <typename Fn>
Timing time_reps(int reps, int warmup, Fn&& fn) {
  for (int w = 0; w < warmup; ++w) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) samples.push_back(seconds(fn));
  return summarize(samples);
}

bool stats_equal(const hls::ForwardStats& a, const hls::ForwardStats& b) {
  return a.saturations == b.saturations && a.overflows == b.overflows;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto frames = static_cast<std::size_t>(cli.get_int("frames", 32));
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  const int warmup = static_cast<int>(cli.get_int("warmup", 2));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
  const std::string out_path = cli.get_string("out", "BENCH_kernels.json");
  const double min_speedup = cli.get_double("min_speedup", 1.5);
  const double min_narrow_fraction = cli.get_double("min_narrow_fraction", 0.0);
  cli.check_unknown();

  bench::print_header("hot-path kernels: narrow-lane vs reference executor",
                      "enables the 575 fps / 3 ms deployment rates "
                      "(paper §I, §VI)");

  const bench::DeployedUnet d;
  const hls::QuantizedModel qm(d.deployed_firmware());
  const auto inputs = d.eval_inputs(frames, seed);
  std::vector<std::vector<std::int64_t>> raw;
  raw.reserve(frames);
  for (const auto& in : inputs) raw.push_back(qm.quantize_input(in));

  // Bit-identity gate: the blocked kernels must reproduce the reference
  // executor exactly — raw output words AND per-layer stats counters.
  bool bit_identical = true;
  for (const auto& r : raw) {
    hls::ForwardStats fast_stats;
    hls::ForwardStats ref_stats;
    const auto fast = qm.forward_raw(r, &fast_stats);
    const auto ref = qm.forward_raw_reference(r, &ref_stats);
    if (fast != ref || !stats_equal(fast_stats, ref_stats)) {
      bit_identical = false;
      break;
    }
  }

  // The fast path and its profiled twin (a clock read around each layer)
  // share one rep loop, alternating which runs first, so a noisy spell on a
  // shared host hits both headlines alike. The per-layer rows come from the
  // profiled rep with the best whole-frame time measured around the same
  // calls.
  const auto& fw = qm.firmware();
  std::vector<double> fast_samples;
  std::vector<double> layer_ns;
  double prof_s = 1e300;
  for (int r = -warmup; r < reps; ++r) {
    std::vector<double> ns(fw.layers.size(), 0.0);
    const auto fast_pass = [&] {
      return seconds([&] {
        for (const auto& f : raw) {
          volatile std::int64_t sink = qm.forward_raw(f).back();
          (void)sink;
        }
      });
    };
    const auto profiled_pass = [&] {
      return seconds([&] {
        for (const auto& f : raw) {
          volatile std::int64_t sink = qm.forward_raw_profiled(f, ns).back();
          (void)sink;
        }
      });
    };
    double fast_s = 0.0;
    double p_s = 0.0;
    if (r % 2 == 0) {
      fast_s = fast_pass();
      p_s = profiled_pass();
    } else {
      p_s = profiled_pass();
      fast_s = fast_pass();
    }
    if (r < 0) continue;
    fast_samples.push_back(fast_s);
    if (p_s < prof_s) {
      prof_s = p_s;
      layer_ns = std::move(ns);
    }
  }
  const Timing fast_t = summarize(fast_samples);
  // One extra untimed pass counts the MAC layers' input sparsity.
  std::vector<hls::MacInputs> mac_inputs(fw.layers.size());
  {
    std::vector<double> ns(fw.layers.size(), 0.0);
    for (const auto& f : raw) (void)qm.forward_raw_profiled(f, ns, mac_inputs);
  }

  const Timing ref_t = time_reps(reps, warmup, [&] {
    for (const auto& r : raw) {
      volatile std::int64_t sink = qm.forward_raw_reference(r).back();
      (void)sink;
    }
  });
  const Timing float_time = time_reps(reps, warmup, [&] {
    for (const auto& in : inputs) {
      volatile float sink = d.bundle.model.forward(in)[0];
      (void)sink;
    }
  });
  const Timing batch_t = time_reps(reps, warmup, [&] {
    volatile float sink = qm.forward_batch(inputs).back()[0];
    (void)sink;
  });

  // Activation arena per frame and thread, in 8-byte words: the liveness
  // plan's block of int16/int64 slabs against one int64 slab per layer,
  // plus the per-step scratch on top.
  const auto footprint = qm.arena_footprint();
  std::size_t unplanned_words = 0;
  for (const auto& l : fw.layers) unplanned_words += l.positions * l.out_channels;

  const double n = static_cast<double>(frames);
  const double fast_ms = fast_t.best / n * 1e3;
  const double ref_ms = ref_t.best / n * 1e3;
  const double float_ms = float_time.best / n * 1e3;
  const double speedup = fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
  const double batch_fps = batch_t.best > 0.0 ? n / batch_t.best : 0.0;

  // Per-layer lane report from the range prover.
  const auto& lanes = qm.lanes();
  const double narrow_fraction =
      lanes.mac_layers == 0 ? 0.0
                            : static_cast<double>(lanes.narrow_layers) /
                                  static_cast<double>(lanes.mac_layers);
  std::ostringstream lanes_json;
  lanes_json << "[";
  bool first = true;
  for (std::size_t i = 0; i < fw.layers.size(); ++i) {
    if (!lanes.decisions[i].mac_layer) continue;
    if (!first) lanes_json << ", ";
    first = false;
    lanes_json << "{\"layer\": \"" << fw.layers[i].name << "\", \"lane\": \""
               << hls::to_string(lanes.decisions[i].lane) << "\"}";
  }
  lanes_json << "]";

  // Per-layer table. A 16-lane vector MAC is one listed input term times
  // one 16-output block (the narrow AVX-512 lane's unit of work).
  const double prof_ns = prof_s / n * 1e9;
  double layer_sum_ns = 0.0;
  for (const double ns : layer_ns) layer_sum_ns += ns / n;
  std::ostringstream layers_json;
  layers_json << "[";
  for (std::size_t i = 1; i < fw.layers.size(); ++i) {
    const auto& l = fw.layers[i];
    const auto& in = mac_inputs[i];
    const double ns = layer_ns[i] / n;
    if (i > 1) layers_json << ", ";
    layers_json << "{\"layer\": \"" << l.name << "\", \"kind\": \""
                << hls::to_string(l.kind)
                << "\", \"ns_per_frame\": " << util::Table::fmt(ns, 0)
                << ", \"share\": "
                << util::Table::fmt(
                       layer_sum_ns > 0.0 ? ns / layer_sum_ns : 0.0, 4);
    if (in.macs > 0) {
      const double macs = static_cast<double>(in.macs) / n;
      const double blocks = static_cast<double>((l.out_channels + 15) / 16);
      layers_json
          << ", \"macs\": " << util::Table::fmt(macs, 0)
          << ", \"nonzero_input_frac\": "
          << util::Table::fmt(static_cast<double>(in.nonzero_inputs) /
                                  static_cast<double>(in.inputs),
                              3)
          << ", \"vector_macs_per_frame\": "
          << util::Table::fmt(
                 static_cast<double>(in.listed_terms) / n * blocks, 0)
          << ", \"gmac_per_s\": "
          << util::Table::fmt(ns > 0.0 ? macs / ns : 0.0, 2);
    }
    layers_json << "}";
  }
  layers_json << "]";
  const double layer_gap =
      prof_ns > 0.0 ? std::abs(layer_sum_ns - prof_ns) / prof_ns : 1.0;

  std::ostringstream json;
  json << "{\"bench\": \"kernels\""
       << ", \"variant\": \"" << hls::kernels::variant() << "\""
       << ", \"float_variant\": \"" << nn::kernels::float_variant() << "\""
       << ", \"narrow_variant\": \"" << hls::kernels::narrow_variant() << "\""
       << ", \"narrow_dp_variant\": \"" << hls::kernels::narrow_dp_variant()
       << "\""
       << ", \"frames\": " << frames << ", \"reps\": " << reps
       << ", \"warmup\": " << warmup
       << ", \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ", \"quant_reference_ms_per_frame\": "
       << util::Table::fmt(ref_ms, 4)
       << ", \"quant_fast_ms_per_frame\": " << util::Table::fmt(fast_ms, 4)
       << ", \"quant_fast_rep_stddev_ms\": "
       << util::Table::fmt(fast_t.stddev / n * 1e3, 4)
       << ", \"quant_reference_rep_stddev_ms\": "
       << util::Table::fmt(ref_t.stddev / n * 1e3, 4)
       << ", \"float_ms_per_frame\": " << util::Table::fmt(float_ms, 4)
       << ", \"speedup\": " << util::Table::fmt(speedup, 3)
       << ", \"batch_fps\": " << util::Table::fmt(batch_fps, 1)
       << ", \"mac_layers\": " << lanes.mac_layers
       << ", \"narrow_layers\": " << lanes.narrow_layers
       << ", \"narrow_fraction\": " << util::Table::fmt(narrow_fraction, 3)
       << ", \"lanes\": " << lanes_json.str()
       << ", \"act_words_planned\": " << footprint.act_bytes / 8
       << ", \"act_words_unplanned\": " << unplanned_words
       << ", \"scratch_words\": " << footprint.scratch_bytes / 8
       << ", \"profiled_ms_per_frame\": " << util::Table::fmt(prof_ns * 1e-6, 4)
       << ", \"layer_sum_ms_per_frame\": "
       << util::Table::fmt(layer_sum_ns * 1e-6, 4)
       << ", \"layers\": " << layers_json.str() << "}";

  std::cout << json.str() << "\n";
  std::ofstream(out_path) << json.str() << "\n";

  if (!bit_identical) {
    std::cerr << "FAIL: fast path diverged from reference executor\n";
    return 1;
  }
  if (speedup < min_speedup) {
    std::cerr << "FAIL: speedup " << util::Table::fmt(speedup, 3)
              << "x below required " << util::Table::fmt(min_speedup, 3)
              << "x\n";
    return 1;
  }
  if (layer_gap > 0.05) {
    std::cerr << "FAIL: per-layer rows sum to "
              << util::Table::fmt(layer_sum_ns * 1e-6, 4) << " ms, "
              << util::Table::fmt(layer_gap * 100.0, 1)
              << "% off the profiled frame's "
              << util::Table::fmt(prof_ns * 1e-6, 4) << " ms\n";
    return 1;
  }
  if (narrow_fraction < min_narrow_fraction) {
    std::cerr << "FAIL: narrow lanes on " << lanes.narrow_layers << "/"
              << lanes.mac_layers << " MAC layers, below required fraction "
              << util::Table::fmt(min_narrow_fraction, 3) << "\n";
    return 1;
  }
  return 0;
}
