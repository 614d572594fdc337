// Shared plumbing for the benchmark binaries: the deployed U-Net / MLP
// configurations (trained via the model cache), their firmware, and the
// evaluation inputs. Every bench accepts --seed/--frames style flags and
// prints paper-style tables.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "blm/data.hpp"
#include "core/pretrained.hpp"
#include "hls/accuracy.hpp"
#include "hls/firmware.hpp"
#include "hls/latency.hpp"
#include "hls/profiler.hpp"
#include "hls/qmodel.hpp"
#include "hls/resource.hpp"
#include "soc/system.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace reads::bench {

/// Flags every load-driving bench shares, parsed with the same names and
/// defaults everywhere: `--threads` (0 = size from the hardware),
/// `--duration_s` (wall-clock budget of the measured section) and `--seed`.
/// `--fault_scenario`/`--fault_seed` let any bench replay a specific chaos
/// schedule (fault/plan.hpp) deterministically; the default is no faults,
/// and `--fault_seed=0` reuses `--seed` so one number reproduces the whole
/// run, faults included. The cluster trio (`--listen`, `--replica_procs`,
/// `--transport`) configures the multi-process benches; single-process
/// benches parse and ignore them so flag spellings stay uniform.
struct StandardFlags {
  std::size_t threads = 0;
  double duration_s = 2.0;
  std::uint64_t seed = 7;
  std::string fault_scenario;  ///< empty = fault-free
  std::uint64_t fault_seed = 0;
  /// Seeds a blm::DriftSchedule where a bench drives a drifting machine;
  /// 0 reuses --seed so one number reproduces the run, drift included.
  std::uint64_t drift_seed = 0;
  /// Fraction of admitted frames mirrored during shadow rollout.
  double shadow_fraction = 0.25;
  /// Multi-process cluster benches: router listen endpoint ("tcp:host:port"
  /// or "uds:/path.sock"; empty = auto per --transport), replica process
  /// count (0 = bench-specific default) and transport selection
  /// ("tcp" | "uds" | "both").
  std::string listen;
  std::size_t replica_procs = 0;
  std::string transport = "both";
  /// Autotune trio (bench_autotune; other benches parse and ignore them):
  /// validation budget (0 = bench default), tuner seed (0 = reuse --seed)
  /// and the CI-sized quick mode.
  std::size_t tune_budget = 0;
  std::uint64_t tune_seed = 0;
  bool tune_quick = false;

  static StandardFlags parse(util::Cli& cli, double default_duration_s = 2.0) {
    StandardFlags f;
    f.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
    f.duration_s = cli.get_double("duration_s", default_duration_s);
    f.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
    f.fault_scenario = cli.get_string("fault_scenario", "");
    f.fault_seed = static_cast<std::uint64_t>(cli.get_int("fault_seed", 0));
    if (f.fault_seed == 0) f.fault_seed = f.seed;
    f.drift_seed = static_cast<std::uint64_t>(cli.get_int("drift_seed", 0));
    if (f.drift_seed == 0) f.drift_seed = f.seed;
    f.shadow_fraction = cli.get_double("shadow_fraction", 0.25);
    f.listen = cli.get_string("listen", "");
    f.replica_procs =
        static_cast<std::size_t>(cli.get_int("replica_procs", 0));
    f.transport = cli.get_string("transport", "both");
    f.tune_budget = static_cast<std::size_t>(cli.get_int("tune_budget", 0));
    f.tune_seed = static_cast<std::uint64_t>(cli.get_int("tune_seed", 0));
    if (f.tune_seed == 0) f.tune_seed = f.seed;
    f.tune_quick = cli.get_bool("tune_quick", false);
    if (f.duration_s <= 0.0) {
      throw std::invalid_argument("--duration_s must be > 0");
    }
    if (f.shadow_fraction <= 0.0 || f.shadow_fraction > 1.0) {
      throw std::invalid_argument("--shadow_fraction must be in (0, 1]");
    }
    if (f.transport != "tcp" && f.transport != "uds" &&
        f.transport != "both") {
      throw std::invalid_argument("--transport must be tcp, uds or both");
    }
    // One --listen endpoint cannot serve both transports, nor the other one.
    if (!f.listen.empty() && f.listen.rfind(f.transport + ":", 0) != 0) {
      throw std::invalid_argument(
          "--listen needs --transport set to its own scheme");
    }
    return f;
  }

  /// Shared flag documentation for benches that honor `--help`.
  static const char* help() {
    return
        "shared flags:\n"
        "  --threads=N          global pool size (0 = hardware)\n"
        "  --duration_s=S       wall-clock budget of measured sections\n"
        "  --seed=N             master seed (load, frames, schedules)\n"
        "  --fault_scenario=S   chaos schedule name (empty = fault-free)\n"
        "  --fault_seed=N       chaos seed (0 = reuse --seed)\n"
        "  --drift_seed=N       drift schedule seed (0 = reuse --seed)\n"
        "  --shadow_fraction=F  shadow-rollout mirror fraction (0, 1]\n"
        "cluster flags (multi-process benches):\n"
        "  --listen=EP          router endpoint, tcp:host:port or\n"
        "                       uds:/path.sock (empty = auto per transport;\n"
        "                       needs --transport=tcp or uds to match)\n"
        "  --replica_procs=N    replica server processes (0 = default)\n"
        "  --transport=T        tcp | uds | both (default both)\n"
        "autotune flags (bench_autotune):\n"
        "  --tune_budget=N      candidate validation budget (0 = default)\n"
        "  --tune_seed=N        tuner seed (0 = reuse --seed)\n"
        "  --tune_quick         CI-sized search (smaller budget + frames)\n";
  }

  /// Pin the global pool size before anything constructs it, so
  /// `--threads=N` reproducibly bounds every parallel_for in the run.
  void apply_threads() const {
    if (threads == 0) return;
    try {
      util::ThreadPool::set_global_threads(threads);
    } catch (const std::logic_error&) {
      std::cerr << "warning: --threads ignored (global pool already built)\n";
    }
  }
};

struct DeployedUnet {
  core::TrainedBundle bundle;
  std::vector<tensor::Tensor> calibration;
  hls::Profile profile;

  explicit DeployedUnet(const core::PretrainedOptions& opts = {},
                        std::size_t calibration_frames = 64)
      : bundle(core::pretrained_unet(opts)) {
    calibration =
        blm::build_eval_inputs(calibration_frames, opts.seed + 1,
                               bundle.standardizer, bundle.machine);
    profile = hls::profile_model(bundle.model, calibration);
  }

  hls::FirmwareModel firmware(hls::QuantConfig quant) const {
    hls::HlsConfig cfg;
    cfg.quant = std::move(quant);
    cfg.reuse = hls::ReusePolicy::deployed_unet();
    return hls::compile(bundle.model, cfg);
  }

  hls::FirmwareModel deployed_firmware(int total_bits = 16) const {
    return firmware(hls::layer_based_config(bundle.model, profile, total_bits));
  }

  std::vector<tensor::Tensor> eval_inputs(std::size_t n,
                                          std::uint64_t seed) const {
    return blm::build_eval_inputs(n, seed, bundle.standardizer, bundle.machine);
  }
};

struct DeployedMlp {
  core::TrainedBundle bundle;
  std::vector<tensor::Tensor> calibration;
  hls::Profile profile;

  explicit DeployedMlp(const core::PretrainedOptions& opts = {},
                       std::size_t calibration_frames = 64)
      : bundle(core::pretrained_mlp(opts)) {
    auto frames = blm::build_eval_inputs(calibration_frames, opts.seed + 1,
                                         bundle.standardizer, bundle.machine);
    for (auto& f : frames) {
      calibration.push_back(f.reshaped({1, f.numel()}));
    }
    profile = hls::profile_model(bundle.model, calibration);
  }

  hls::FirmwareModel deployed_firmware(int total_bits = 16) const {
    hls::HlsConfig cfg;
    cfg.quant = hls::layer_based_config(bundle.model, profile, total_bits);
    cfg.reuse = hls::ReusePolicy::deployed_mlp();
    return hls::compile(bundle.model, cfg);
  }

  std::vector<tensor::Tensor> eval_inputs(std::size_t n,
                                          std::uint64_t seed) const {
    std::vector<tensor::Tensor> out;
    for (auto& f :
         blm::build_eval_inputs(n, seed, bundle.standardizer, bundle.machine)) {
      out.push_back(f.reshaped({1, f.numel()}));
    }
    return out;
  }
};

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "paper reference: " << paper << "\n\n";
}

}  // namespace reads::bench
