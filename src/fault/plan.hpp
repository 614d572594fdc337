// Fault taxonomy and scheduling for the chaos harness.
//
// A Plan is a deterministic schedule: each FaultEvent activates one fault
// kind at one site (hub index, replica index, or the NN IP) over a window
// of ticks. Plans are either hand-built in tests or generated by name via
// Plan::scenario(), which derives every placement from a seed so a campaign
// is replayable bit-for-bit from (scenario, seed) alone — the property that
// makes a chaos failure debuggable instead of anecdotal.
//
// The plan is pure data (windows over fault/schedule.hpp's shared core);
// the Injector (injector.hpp) is what turns an active event into corrupted
// packets, wedged IPs, or throwing backends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/schedule.hpp"

namespace reads::fault {

enum class FaultKind : std::uint8_t {
  kPacketCorrupt,    ///< bit flip on the wire (CRC must catch it)
  kPacketMalform,    ///< well-checksummed nonsense header (layout check)
  kPacketDuplicate,  ///< datagram delivered twice in one tick
  kPacketReorder,    ///< delivery order scrambled within the tick
  kHubOutage,        ///< hub silent for the whole window (sustained loss)
  kReadingSaturate,  ///< digitizer pegged at full scale (plausibility gate)
  kReadingNan,       ///< digitizer front-end emitting NaN (encoded as zero)
  kNnIpHang,         ///< first IP attempt per tick wedges; the retry works
  kNnIpWedge,        ///< every IP attempt wedges (forces HPS fallback)
  kReplicaCrash,     ///< serving backend throws (site = replica, tick = op)
};

std::string_view to_string(FaultKind kind) noexcept;

/// Site: hub index for packet/reading faults, replica index for crashes, 0
/// for the NN IP (there is one). Window axis: the tick (for kReplicaCrash,
/// the replica's own backend-op counter).
using FaultEvent = Window<FaultKind>;

/// Knobs for Plan::scenario so one factory serves benches of any size.
struct ScenarioParams {
  std::uint64_t seed = 7;
  std::uint64_t ticks = 600;   ///< campaign length the windows must fit in
  std::size_t hubs = 7;
  std::size_t replicas = 4;
};

class Plan : public Schedule<FaultKind> {
 public:
  /// Last tick any event covers (0 for an empty plan): the bench's recovery
  /// gates start measuring after this.
  std::uint64_t last_fault_tick() const noexcept;

  /// Named, seeded campaign plans. Names: none, corrupt, malform,
  /// duplicate, reorder, outage, saturate, nan, ip_hang, ip_wedge, crash,
  /// storm (everything at once). Throws std::invalid_argument on an
  /// unknown name.
  static Plan scenario(std::string_view name, const ScenarioParams& params);

  /// The names scenario() accepts, in campaign order.
  static const std::vector<std::string>& scenario_names();
};

}  // namespace reads::fault
