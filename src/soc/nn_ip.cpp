#include "soc/nn_ip.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace reads::soc {

NnIpCore::NnIpCore(EventSim& sim, const hls::QuantizedModel& model,
                   OnChipRam& input, OnChipRam& output, ControlIp& control,
                   FpgaParams fpga, hls::LatencyModelParams latency_params,
                   bool functional)
    : sim_(sim),
      model_(&model),
      input_(input),
      output_(output),
      control_(control),
      fpga_(fpga),
      latency_params_(latency_params),
      run_cycles_(validate_and_estimate(model).total_cycles),
      functional_(functional) {}

hls::LatencyReport NnIpCore::validate_and_estimate(
    const hls::QuantizedModel& model) const {
  const auto& fw = model.firmware();
  if (input_.size() < fw.input_values) {
    throw std::invalid_argument("NnIpCore: input buffer too small");
  }
  if (output_.size() < fw.output_values) {
    throw std::invalid_argument("NnIpCore: output buffer too small");
  }
  if (fw.input_spec.width > 16 || fw.output_spec.width > 16) {
    throw std::invalid_argument(
        "NnIpCore: the memory-mapped interface carries 16-bit words; "
        "deploy a <=16-bit firmware (wider precisions are analysis-only)");
  }
  return hls::LatencyModel(latency_params_).estimate(fw);
}

void NnIpCore::rebind(const hls::QuantizedModel& model) {
  if (busy_) {
    throw std::logic_error("NnIpCore: rebind while a run is in flight");
  }
  const std::size_t cycles = validate_and_estimate(model).total_cycles;
  model_ = &model;
  run_cycles_ = cycles;
}

void NnIpCore::trigger() {
  if (busy_) throw std::logic_error("NnIpCore: trigger while busy");
  busy_ = true;
  ++runs_;
  if (hang_hook_ && hang_hook_(runs_)) {
    // Wedged: the FSM is stuck busy and the done pulse never comes. Only a
    // watchdog reset gets the core back.
    ++hangs_;
    return;
  }
  const auto duration = static_cast<SimTime>(std::llround(
      static_cast<double>(run_cycles_) * fpga_.cycle_ns()));
  const std::uint64_t epoch = epoch_;
  sim_.schedule_in(duration, [this, epoch] {
    if (epoch == epoch_) finish();
  });
}

void NnIpCore::reset() noexcept {
  ++epoch_;
  ++resets_;
  busy_ = false;
}

void NnIpCore::finish() {
  // Functional execution happens at completion time: read the input buffer
  // words the HPS staged, run the integer pipeline, stage the outputs.
  const auto& fw = model_->firmware();
  if (functional_) {
    std::vector<std::int64_t> in_raw(fw.input_values);
    for (std::size_t i = 0; i < fw.input_values; ++i) {
      in_raw[i] = input_.read16(i);
    }
    const auto out_raw = model_->forward_raw(in_raw);
    for (std::size_t i = 0; i < out_raw.size(); ++i) {
      output_.write16(i, static_cast<std::int16_t>(out_raw[i]));
    }
  } else {
    for (std::size_t i = 0; i < fw.output_values; ++i) output_.write16(i, 0);
  }
  busy_ = false;
  control_.ip_done();
}

}  // namespace reads::soc
