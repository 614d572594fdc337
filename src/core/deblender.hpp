// DeblendingSystem — the library's top-level public API.
//
// Wraps the full deployment of the paper: a trained U-Net, profiled and
// lowered to layer-based 16-bit firmware with the deployed reuse plan,
// running on the simulated Arria 10 SoC. Callers feed raw BLM frames (the
// 260 monitor readings as they arrive over Ethernet) and receive the
// per-frame mitigation decision with its latency accounting.
#pragma once

#include <memory>
#include <optional>

#include "core/pretrained.hpp"
#include "hls/accuracy.hpp"
#include "hls/firmware.hpp"
#include "hls/latency.hpp"
#include "hls/resource.hpp"
#include "soc/system.hpp"

namespace reads::core {

enum class MitigationTarget { kNone, kMainInjector, kRecyclerRing };

std::string_view to_string(MitigationTarget target) noexcept;

/// Which compute produced the probabilities behind a decision.
enum class DecisionSource : std::uint8_t {
  kNnIp,             ///< the quantized NN IP on the fabric (normal path)
  kHpsFloatFallback  ///< float model on the ARM core after the IP wedged
};

std::string_view to_string(DecisionSource source) noexcept;

struct Decision {
  tensor::Tensor probabilities;  ///< (monitors, 2) — MI, RR per monitor
  MitigationTarget target = MitigationTarget::kNone;
  double mi_score = 0.0;  ///< summed MI probability over monitors
  double rr_score = 0.0;
  soc::FrameTiming timing;
  DecisionSource source = DecisionSource::kNnIp;
  /// Watchdog expiries while serving this frame (a successful reset-and-
  /// retry reports them without degrading — the retried output is
  /// bit-identical to a clean run).
  std::size_t watchdog_timeouts = 0;
  /// True when the probabilities did not come from the deployed firmware
  /// (HPS float fallback): numerically close, but not the validated
  /// quantized pipeline, so operators must treat the decision as
  /// low-confidence.
  bool degraded = false;
  /// True when the frame landed inside a partial-reconfiguration window
  /// (a planned firmware swap, as opposed to a watchdog-exhausted wedge);
  /// implies degraded and kHpsFloatFallback.
  bool reconfiguring = false;
  /// Which installed model generation produced this decision. Starts at 1
  /// for the model the system was built with and increments on every
  /// completed swap_model(), so a decision stream can be audited for
  /// exactly when the hot-swap landed.
  std::uint64_t model_epoch = 1;
};

/// Trip logic alone: sum the per-monitor MI/RR probabilities and pick the
/// mitigation target against `trip_threshold`; timing is left for the
/// caller to fill.
Decision decide(tensor::Tensor probabilities, double trip_threshold);

struct DeblendConfig {
  PretrainedOptions model;
  int total_bits = 16;
  /// Monitors whose summed probability must exceed this for a trip.
  double trip_threshold = 2.0;
  std::size_t calibration_frames = 64;
  soc::SocParams soc;
  hls::LatencyModelParams latency;
  std::uint64_t seed = 7;
};

class DeblendingSystem {
 public:
  /// Train-or-load the model, profile it, lower it, and stand up the SoC.
  static DeblendingSystem build(const DeblendConfig& config = {});

  /// One 3 ms frame: raw readings in, mitigation decision out.
  Decision process(const tensor::Tensor& raw_frame);

  /// Stage a qualified replacement model for zero-downtime hot-swap. Opens
  /// an FPGA partial-reconfiguration window of `reconfig_window_frames`
  /// decision ticks: frames arriving inside the window are served by the
  /// *incumbent* float model on the HPS (degraded + reconfiguring flags
  /// set), and the first process() call after the window drains installs
  /// the new firmware on the NN IP, publishes the new float model +
  /// standardizer for fallback, and bumps model_epoch(). No tick is ever
  /// skipped. Throws std::logic_error if a swap is already staged, or
  /// std::invalid_argument on a null/geometry-mismatched candidate.
  /// Single-threaded like process(): call from the decision-loop thread.
  void swap_model(nn::Model float_model, train::Standardizer standardizer,
                  std::shared_ptr<const hls::QuantizedModel> quantized,
                  std::size_t reconfig_window_frames);

  /// True while a staged swap has not yet been installed (reconfiguration
  /// window still open, or install pending on the next process()).
  bool swap_pending() const noexcept { return pending_.has_value(); }
  /// Installed model generation (1 = the model build() trained).
  std::uint64_t model_epoch() const noexcept { return model_epoch_; }

  const nn::Model& float_model() const noexcept { return bundle_.model; }
  const hls::QuantizedModel& quantized() const noexcept { return *qmodel_; }
  /// Shared ownership of the deployed firmware (e.g. to seed a registry);
  /// stays valid across swaps for as long as the caller holds it.
  std::shared_ptr<const hls::QuantizedModel> quantized_ptr() const noexcept {
    return qmodel_;
  }
  const train::Standardizer& standardizer() const noexcept {
    return bundle_.standardizer;
  }
  soc::ArriaSocSystem& soc() noexcept { return *soc_; }
  const hls::ResourceReport& resources() const noexcept { return resources_; }
  const hls::LatencyReport& ip_latency() const noexcept { return ip_latency_; }
  const DeblendConfig& config() const noexcept { return config_; }

 private:
  DeblendingSystem(DeblendConfig config, TrainedBundle bundle);

  /// A qualified candidate staged by swap_model(), waiting for the
  /// reconfiguration window to drain before installation.
  struct PendingSwap {
    nn::Model model;
    train::Standardizer standardizer;
    std::shared_ptr<const hls::QuantizedModel> quantized;
  };

  DeblendConfig config_;
  TrainedBundle bundle_;
  std::shared_ptr<const hls::QuantizedModel> qmodel_;
  std::unique_ptr<soc::ArriaSocSystem> soc_;
  hls::ResourceReport resources_;
  hls::LatencyReport ip_latency_;
  std::optional<PendingSwap> pending_;
  std::uint64_t model_epoch_ = 1;
};

}  // namespace reads::core
