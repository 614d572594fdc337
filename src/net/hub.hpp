// A BLM hub crate: owns a contiguous span of monitors, digitizes their
// readings every 3 ms tick, and ships one datagram to the central node.
// The link model covers serialization, switch transit with jitter, and a
// small loss probability (industrial Ethernet in a radiation environment).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace reads::net {

struct LinkParams {
  double bandwidth_gbps = 1.0;    ///< hub uplink
  double base_latency_us = 12.0;  ///< NIC + switch transit
  double jitter_sigma_us = 3.0;   ///< transit jitter (half-normal-ish)
  double drop_probability = 0.0;  ///< per-packet loss
};

/// Result of one transmission attempt.
struct Delivery {
  BlmPacket packet;
  double arrival_us = 0.0;  ///< relative to the frame tick
  bool dropped = false;
};

class BlmHub {
 public:
  BlmHub(std::uint8_t id, std::uint16_t first_monitor, std::uint16_t count,
         LinkParams link, std::uint64_t seed);

  std::uint8_t id() const noexcept { return id_; }
  std::uint16_t first_monitor() const noexcept { return first_; }

  /// Digitize this hub's slice of the frame and transmit it.
  /// `frame_readings` are the raw readings of the whole ring.
  Delivery transmit(std::uint32_t sequence,
                    std::span<const double> frame_readings);

  std::uint64_t packets_sent() const noexcept { return sent_; }
  std::uint64_t packets_dropped() const noexcept { return dropped_; }

 private:
  std::uint8_t id_;
  std::uint16_t first_;
  std::uint16_t count_;
  LinkParams link_;
  util::Xoshiro256 rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Carve `monitors` monitors into `hubs` contiguous, nearly equal spans —
/// the facility's seven-hub layout for the 260-monitor ring.
std::vector<std::pair<std::uint16_t, std::uint16_t>> hub_layout(
    std::size_t monitors, std::size_t hubs = 7);

}  // namespace reads::net
