// The NN IP core as deployed on the FPGA fabric: on a start pulse it
// actively reads the input buffer through its 16-bit memory-mapped host
// port, runs the quantized network, writes the output buffer, and pulses
// done. Functionally it executes the bit-accurate QuantizedModel; its
// timing comes from the hls::LatencyModel estimate.
#pragma once

#include <cstdint>
#include <functional>

#include "hls/latency.hpp"
#include "hls/qmodel.hpp"
#include "soc/control_ip.hpp"
#include "soc/event_sim.hpp"
#include "soc/ocram.hpp"
#include "soc/params.hpp"

namespace reads::soc {

class NnIpCore {
 public:
  NnIpCore(EventSim& sim, const hls::QuantizedModel& model, OnChipRam& input,
           OnChipRam& output, ControlIp& control, FpgaParams fpga,
           hls::LatencyModelParams latency_params = {},
           bool functional = true);

  /// Fault hook: consulted on every trigger with the 1-based run index.
  /// Returning true wedges this run — the IP goes busy and never pulses
  /// done, exactly like a radiation-upset FSM. Used only by the fault
  /// harness; absent, the trigger path is unchanged.
  using HangHook = std::function<bool(std::uint64_t run)>;
  void set_hang_hook(HangHook hook) { hang_hook_ = std::move(hook); }

  /// Start pulse from the control IP.
  void trigger();

  /// Hardware reset from the HPS watchdog: drop any in-flight run (a
  /// completion scheduled before the reset is disarmed by the epoch guard)
  /// and return to idle, ready for a fresh trigger.
  void reset() noexcept;

  /// Partial reconfiguration landed: point the core at new firmware and
  /// re-derive its cycle budget from the new layer plan. The caller (the
  /// system's reconfiguration window) guarantees the core is idle — the
  /// fabric region cannot be reprogrammed mid-run — and that the new
  /// firmware has the same I/O geometry as the buffers wired to the core.
  /// Throws std::logic_error if busy, std::invalid_argument on a geometry
  /// or word-width mismatch.
  void rebind(const hls::QuantizedModel& model);

  /// Cycle budget of one run (read + compute + write), at the FPGA clock.
  std::size_t run_cycles() const noexcept { return run_cycles_; }
  std::uint64_t runs() const noexcept { return runs_; }
  std::uint64_t hangs() const noexcept { return hangs_; }
  std::uint64_t resets() const noexcept { return resets_; }

 private:
  void finish();

  /// Validate geometry/width and compute the latency report for `model`
  /// (shared by the constructor and rebind()).
  hls::LatencyReport validate_and_estimate(
      const hls::QuantizedModel& model) const;

  EventSim& sim_;
  const hls::QuantizedModel* model_;
  OnChipRam& input_;
  OnChipRam& output_;
  ControlIp& control_;
  FpgaParams fpga_;
  hls::LatencyModelParams latency_params_;
  std::size_t run_cycles_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t hangs_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t epoch_ = 0;  ///< bumped on reset; stale completions no-op
  bool busy_ = false;
  bool functional_ = true;
  HangHook hang_hook_;
};

}  // namespace reads::soc
