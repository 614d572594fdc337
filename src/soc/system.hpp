// ArriaSocSystem: the complete central node of Fig. 2 — input/output
// on-chip RAMs, control IP, NN IP core, and the HPS application — wired on
// one event simulation. This is the object the benches drive to reproduce
// the paper's end-to-end latency numbers (Table I, Fig. 3, Fig. 5c) and the
// 320 fps / 3 ms deployment requirement.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hls/qmodel.hpp"
#include "soc/control_ip.hpp"
#include "soc/event_sim.hpp"
#include "soc/hps.hpp"
#include "soc/nn_ip.hpp"
#include "soc/ocram.hpp"
#include "soc/params.hpp"
#include "tensor/tensor.hpp"

namespace reads::soc {

using tensor::Tensor;

struct FrameResult {
  Tensor output;       ///< dequantized (monitors, 2) probabilities
  FrameTiming timing;
  /// Watchdog expiries while serving this frame (0 on the clean path; a
  /// successful reset-and-retry still reports its timeouts here, with the
  /// recovery time folded into timing).
  std::size_t watchdog_timeouts = 0;
  /// True when every fabric attempt wedged and no IP output exists for this
  /// frame (`output` is empty). The caller must compute the frame on the
  /// HPS instead — the system cannot, because float fallback lives a layer
  /// up where the float model is held.
  bool ip_fallback = false;
  /// True when the frame arrived inside a partial-reconfiguration window:
  /// the fabric region holding the NN IP is being reprogrammed, so
  /// `ip_fallback` is also set (the HPS float model must serve the tick).
  /// Distinguishes planned firmware swaps from watchdog-exhausted wedges.
  bool reconfiguring = false;
};

struct StreamReport {
  std::size_t frames = 0;
  /// Latency statistics are end-to-end (arrival to output-in-SDRAM,
  /// including queueing behind the previous frame).
  double mean_latency_ms = 0.0;
  double min_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Frames whose end-to-end latency exceeded the deadline; by construction
  /// equals the number of per-frame timings with deadline_met == false.
  std::size_t deadline_misses = 0;
  /// Sustainable back-to-back rate from service (busy) time alone — what the
  /// node could do if frames were always waiting.
  double capacity_fps = 0.0;
  /// Rate actually delivered over the stream's wall-clock span (arrival of
  /// the first frame to completion of the last); <= max(capacity, offered).
  double observed_fps = 0.0;
  /// Per-frame breakdowns, in arrival order (queue_us/latency_ms filled in).
  std::vector<FrameTiming> timings;
};

class ArriaSocSystem {
 public:
  ArriaSocSystem(const hls::QuantizedModel& model, SocParams params,
                 std::uint64_t seed,
                 hls::LatencyModelParams latency_params = {});

  /// Process one standardized frame end-to-end (steps 1–8); blocking.
  FrameResult process(const Tensor& frame);

  /// Stream frames arriving at `fps`; a frame whose predecessor is still in
  /// flight queues (the HPS application is single-threaded). Latency is
  /// measured from arrival to output-in-SDRAM.
  StreamReport run_stream(std::span<const Tensor> frames, double fps);

  /// Begin an FPGA partial reconfiguration of the NN IP region: for the
  /// next `window_frames` calls to process(), the IP is offline and every
  /// frame returns `ip_fallback = reconfiguring = true` (the HPS float
  /// fallback a layer up serves those ticks, so the decision loop never
  /// skips one). The window models the milliseconds the PR bitstream takes
  /// to stream into the fabric, expressed in decision ticks by the caller.
  /// A window of 0 makes the next install_firmware() immediate.
  void begin_reconfigure(std::size_t window_frames);

  /// Frames left in the current reconfiguration window (0 = IP online).
  bool reconfiguring() const noexcept { return reconfig_remaining_ > 0; }

  /// Complete a reconfiguration: rebind the NN IP to `model`. Must only be
  /// called with the window drained (reconfiguring() == false) and no frame
  /// in flight; the new firmware must match the installed buffer geometry.
  /// `model` must outlive the system, exactly like the constructor model.
  void install_firmware(const hls::QuantizedModel& model);

  /// Install a fault hook on the NN IP (see NnIpCore::HangHook).
  void set_ip_hang_hook(NnIpCore::HangHook hook) {
    ip_.set_hang_hook(std::move(hook));
  }

  std::uint64_t watchdog_timeouts() const noexcept { return watchdog_timeouts_; }
  std::uint64_t ip_resets() const noexcept { return ip_.resets(); }
  std::uint64_t fallback_frames() const noexcept { return fallback_frames_; }
  /// Frames served by HPS fallback because they landed inside a
  /// reconfiguration window (a subset of history, not of fallback_frames()).
  std::uint64_t reconfig_fallback_frames() const noexcept {
    return reconfig_fallback_frames_;
  }
  /// Number of completed install_firmware() swaps.
  std::uint64_t firmware_swaps() const noexcept { return firmware_swaps_; }

  const SocParams& params() const noexcept { return params_; }
  const NnIpCore& ip() const noexcept { return ip_; }
  const ControlIp& control() const noexcept { return control_; }
  const TransferCounters& transfer_counters() const noexcept {
    return hps_.counters();
  }

 private:
  const hls::QuantizedModel* model_;
  SocParams params_;
  EventSim sim_;
  OnChipRam input_ram_;
  OnChipRam output_ram_;
  ControlIp control_;
  NnIpCore ip_;
  Hps hps_;
  std::uint64_t watchdog_timeouts_ = 0;
  std::uint64_t fallback_frames_ = 0;
  std::size_t reconfig_remaining_ = 0;
  std::uint64_t reconfig_fallback_frames_ = 0;
  std::uint64_t firmware_swaps_ = 0;
};

/// Transfer-interface ablation (Table I discussion): time to move a frame's
/// input+output words by per-word MMIO through the bridge vs. a DMA engine
/// with setup and completion-interrupt costs.
struct TransferEstimate {
  double mmio_us = 0.0;
  double dma_us = 0.0;
};
TransferEstimate compare_transfer(std::size_t input_values,
                                  std::size_t output_values,
                                  const SocParams& params);

}  // namespace reads::soc
