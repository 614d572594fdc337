// Seeded open-loop tick schedule and the bytes each tick carries.
//
// Every stream ticks every 3 ms (the paper's 333 Hz BLM cycle), the streams
// staggered evenly across the period behind a seeded common offset; a tick
// is the seven hub packets of one sequence number, serialized back to back
// exactly as they would arrive on the central node's socket. Rates are fixed
// by the workload, never derived from a capacity probe. The same seed gives
// the same due times, streams, sequence numbers and frames.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace perfbench {

struct TickSpec {
  std::int64_t due_ns = 0;  ///< offset from the schedule start
  std::uint32_t stream = 0;
  std::uint32_t seq = 0;    ///< per-stream sequence number
  std::uint32_t frame = 0;  ///< index into the frame pool
};

/// The paper's 3 ms BLM cycle: every stream ticks at 333 Hz.
inline constexpr std::int64_t kPeriodNs = 3'000'000;
/// Frames in the seeded pool (and in the oracle).
inline constexpr std::uint32_t kFramePool = 256;

struct ScheduleParams {
  std::uint32_t streams = 4;
  std::int64_t duration_ns = 10'000'000'000;
  std::uint64_t seed = 1;
};

/// All ticks due in [0, duration), ordered by due time (ties by stream).
std::vector<TickSpec> make_schedule(const ScheduleParams& params);

/// kFramePool frames of digitizer counts, one per monitor, drawn from the
/// fermilab-like machine model (blm::MachineModel) whose installed gains
/// and pedestals come from `machine_seed` — the deployed model's training
/// seed — and whose loss events come from `seed`. Every path decodes the
/// same counts, so the oracle and the served path see the same floats.
std::vector<std::vector<std::uint32_t>> make_frame_pool(
    std::uint64_t machine_seed, std::uint64_t seed);

/// Builds the sealed hub packets of a tick and their wire bytes.
class TickEncoder {
 public:
  TickEncoder(std::size_t monitors, std::size_t hubs);

  std::size_t hubs() const noexcept { return layout_.size(); }

  /// Fill `packets` (resized to hubs()) with the sealed packets of one tick.
  void packets(const std::vector<std::uint32_t>& counts, std::uint32_t seq,
               std::vector<reads::net::BlmPacket>& packets) const;

  /// Serialize the tick's packets back to back into `bytes` (cleared first).
  void serialize(const std::vector<std::uint32_t>& counts, std::uint32_t seq,
                 std::vector<std::uint8_t>& bytes);

 private:
  std::vector<std::pair<std::uint16_t, std::uint16_t>> layout_;
  std::vector<reads::net::BlmPacket> scratch_;
};

}  // namespace perfbench
