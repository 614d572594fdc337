// Cycle-level latency model of the NN IP core at the paper's 100 MHz clock.
//
// The firmware executes as an hls4ml-style dataflow of streaming layer
// processes; for a single frame the end-to-end latency is well approximated
// by the sequential sum of layer service times:
//
//   MAC layer:      cycles = total_macs / instantiated_mults
//                          (= output_positions * reuse)
//                   + per-position overhead (line-buffer shift, boundary
//                     muxes, weight ROM addressing)
//                   + pipeline depth (mult + adder tree + requant stages)
//   elementwise:    cycles = positions (II = 1) + small depth
//
// plus the IP-side I/O: serial reads of the input buffer and writes of the
// output buffer through the 16-bit on-chip RAM port.
#pragma once

#include <string>
#include <vector>

#include "hls/firmware.hpp"

namespace reads::hls {

struct LayerLatency {
  std::string name;
  std::size_t cycles = 0;
};

struct LatencyReport {
  std::vector<LayerLatency> layers;
  std::size_t compute_cycles = 0;  ///< NN pipeline only
  std::size_t io_cycles = 0;       ///< buffer reads/writes on the IP side
  std::size_t total_cycles = 0;
  double clock_mhz = 100.0;

  double total_ms() const {
    return static_cast<double>(total_cycles) / (clock_mhz * 1e3);
  }
};

struct LatencyModelParams {
  /// Extra cycles per output position of a MAC layer.
  double per_position_overhead = 10.0;
  /// Fixed pipeline fill per layer, plus ceil(log2(fan-in)) tree stages.
  double base_depth = 16.0;
  /// Initiation interval of the IP's buffer port (16-bit words / cycle).
  double io_cycles_per_word = 1.0;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelParams params = {});

  LatencyReport estimate(const FirmwareModel& fw) const;

 private:
  LatencyModelParams params_;
};

}  // namespace reads::hls
