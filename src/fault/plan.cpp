#include "fault/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace reads::fault {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kPacketCorrupt: return "packet_corrupt";
    case FaultKind::kPacketMalform: return "packet_malform";
    case FaultKind::kPacketDuplicate: return "packet_duplicate";
    case FaultKind::kPacketReorder: return "packet_reorder";
    case FaultKind::kHubOutage: return "hub_outage";
    case FaultKind::kReadingSaturate: return "reading_saturate";
    case FaultKind::kReadingNan: return "reading_nan";
    case FaultKind::kNnIpHang: return "nn_ip_hang";
    case FaultKind::kNnIpWedge: return "nn_ip_wedge";
    case FaultKind::kReplicaCrash: return "replica_crash";
  }
  return "?";
}

std::uint64_t Plan::last_fault_tick() const noexcept {
  std::uint64_t last = 0;
  for (const auto& e : events()) {
    last = std::max(last, e.start + e.duration - 1);
  }
  return last;
}

namespace {

/// Place `count` windows of `duration` ticks in the middle band at random
/// sites: the bench's bit-identity gates need the clean warm-up and
/// recovery tail band_start leaves.
void place_windows(Plan& plan, FaultKind kind, util::Xoshiro256& rng,
                   const ScenarioParams& p, std::size_t count,
                   std::uint64_t duration, std::size_t sites) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto site = sites > 0 ? static_cast<std::size_t>(rng.uniform_int(
                                      static_cast<std::uint64_t>(sites)))
                                : 0;
    plan.add({kind, site, band_start(rng, p.ticks, duration), duration});
  }
}

void build(Plan& plan, std::string_view name, const ScenarioParams& p,
           util::Xoshiro256& rng) {
  const std::uint64_t burst = std::max<std::uint64_t>(1, p.ticks / 12);
  if (name == "corrupt") {
    place_windows(plan, FaultKind::kPacketCorrupt, rng, p, 3, burst, p.hubs);
  } else if (name == "malform") {
    place_windows(plan, FaultKind::kPacketMalform, rng, p, 3, burst, p.hubs);
  } else if (name == "duplicate") {
    place_windows(plan, FaultKind::kPacketDuplicate, rng, p, 3, burst, p.hubs);
  } else if (name == "reorder") {
    place_windows(plan, FaultKind::kPacketReorder, rng, p, 2, burst, 1);
  } else if (name == "outage") {
    // One sustained blackout (multi-frame LKV + staleness) plus a short
    // blip on a different hub.
    place_windows(plan, FaultKind::kHubOutage, rng, p, 1,
                  std::max<std::uint64_t>(2, p.ticks / 6), p.hubs);
    place_windows(plan, FaultKind::kHubOutage, rng, p, 1, 2, p.hubs);
  } else if (name == "saturate") {
    place_windows(plan, FaultKind::kReadingSaturate, rng, p, 2, burst, p.hubs);
  } else if (name == "nan") {
    place_windows(plan, FaultKind::kReadingNan, rng, p, 2, burst, p.hubs);
  } else if (name == "ip_hang") {
    place_windows(plan, FaultKind::kNnIpHang, rng, p, 1, burst, 1);
  } else if (name == "ip_wedge") {
    place_windows(plan, FaultKind::kNnIpWedge, rng, p, 1,
                  std::max<std::uint64_t>(2, p.ticks / 20), 1);
  } else if (name == "crash") {
    // Crash bursts per replica. For kReplicaCrash the "tick" axis is the
    // replica's own backend-op counter, so windows land mid-campaign for
    // any offered load.
    const std::uint64_t lo = p.ticks / 10;
    const std::uint64_t hi = (8 * p.ticks) / 10;
    const std::uint64_t span = std::max<std::uint64_t>(1, hi - lo);
    for (std::size_t r = 0; r < p.replicas; ++r) {
      for (int i = 0; i < 2; ++i) {
        plan.add({FaultKind::kReplicaCrash, r, lo + rng.uniform_int(span), 4});
      }
    }
  } else {
    throw std::invalid_argument("Plan::scenario: unknown scenario '" +
                                std::string(name) + "'");
  }
}

}  // namespace

Plan Plan::scenario(std::string_view name, const ScenarioParams& params) {
  Plan plan;
  if (name == "none") return plan;
  util::Xoshiro256 rng(util::derive_seed(params.seed, 0xFA17));
  if (name == "storm") {
    // Everything at once: the kitchen-sink resilience check. Sub-scenarios
    // draw from one stream in a fixed order, so the storm is as
    // reproducible as its parts.
    for (const char* part : {"corrupt", "malform", "duplicate", "reorder",
                             "outage", "saturate", "nan", "ip_hang"}) {
      build(plan, part, params, rng);
    }
    return plan;
  }
  build(plan, name, params, rng);
  return plan;
}

const std::vector<std::string>& Plan::scenario_names() {
  static const std::vector<std::string> kNames = {
      "none",     "corrupt", "malform", "duplicate", "reorder", "outage",
      "saturate", "nan",     "ip_hang", "ip_wedge",  "storm"};
  return kNames;
}

}  // namespace reads::fault
