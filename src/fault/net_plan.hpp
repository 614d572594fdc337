// Socket-level fault taxonomy and scheduling for the cluster chaos harness.
//
// NetPlan is the wire-layer sibling of fault::Plan: a deterministic
// schedule of NetFaultEvents, each activating one network fault kind at one
// site over a window of per-site I/O operations. A "site" is a connection
// in the order the io layer opened it inside one process (the router's
// replica legs come up first and in config order; a client process opens
// its traffic connection first), and the op axis is that site's running
// read/write-attempt counter — so the schedule is replayable bit-for-bit
// from (scenario, seed) alone, independent of wall-clock timing and thread
// interleaving, the same discipline fault::Plan established for the
// in-process pipeline.
//
// The plan is pure data; fault::NetInjector (net_chaos.hpp) turns active
// events into short writes, EAGAIN storms, torn connections, flipped
// bytes, refused connects, and slow-loris stalls through the cluster::IoTap
// seam. Nothing here touches the pipeline's RNG streams.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/schedule.hpp"

namespace reads::fault {

enum class NetFaultKind : std::uint8_t {
  kShortWrite,     ///< writes clamped to a handful of bytes (fragmenting)
  kEagainStorm,    ///< reads/writes spuriously would-block
  kConnReset,      ///< connection torn mid-envelope (both directions)
  kByteCorrupt,    ///< bit flip in transit (envelope CRC must catch it)
  kConnectRefuse,  ///< connect attempts to a matching site refused
  kStall,          ///< slow-loris: the peer makes no progress for a window
};

std::string_view to_string(NetFaultKind kind) noexcept;

/// Site: connection index in process-local open order (see header
/// comment). Window axis: the site's I/O op counter (for kConnectRefuse,
/// the connect attempt index against the site's endpoint).
using NetFaultEvent = Window<NetFaultKind>;

/// Knobs for NetPlan::scenario so one factory serves harnesses of any size.
struct NetScenarioParams {
  std::uint64_t seed = 7;
  /// Per-site op horizon the windows must fit in. Windows land in the
  /// middle band [ops/10, 8*ops/10): a fresh connection gets a clean
  /// ramp-up (a reconnected client can resubmit before being hit again)
  /// and every site ends the campaign clean.
  std::uint64_t ops = 400;
  /// Sites [0, sites) participate; later connections run untouched.
  std::size_t sites = 2;
};

class NetPlan : public Schedule<NetFaultKind> {
 public:
  /// Named, seeded campaigns. Names: net_none, torn, short_write, eagain,
  /// corrupt, refuse, stall, net_storm (everything at once). Throws
  /// std::invalid_argument on an unknown name.
  static NetPlan scenario(std::string_view name,
                          const NetScenarioParams& params);

  /// The names scenario() accepts, in campaign order.
  static const std::vector<std::string>& scenario_names();
};

}  // namespace reads::fault
