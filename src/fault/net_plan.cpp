#include "fault/net_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace reads::fault {

std::string_view to_string(NetFaultKind kind) noexcept {
  switch (kind) {
    case NetFaultKind::kShortWrite: return "short_write";
    case NetFaultKind::kEagainStorm: return "eagain_storm";
    case NetFaultKind::kConnReset: return "conn_reset";
    case NetFaultKind::kByteCorrupt: return "byte_corrupt";
    case NetFaultKind::kConnectRefuse: return "connect_refuse";
    case NetFaultKind::kStall: return "stall";
  }
  return "?";
}

namespace {

/// Place `count` windows of `duration` ops per site inside the middle band
/// [ops/10, 8*ops/10) — every participating site gets hit, every window
/// leaves a clean ramp before and a clean tail after (a torn connection's
/// replacement needs fault-free ops to resubmit through).
void place_windows(NetPlan& plan, NetFaultKind kind, util::Xoshiro256& rng,
                   const NetScenarioParams& p, std::size_t count,
                   std::uint64_t duration) {
  for (std::size_t site = 0; site < p.sites; ++site) {
    for (std::size_t i = 0; i < count; ++i) {
      plan.add({kind, site, band_start(rng, p.ops, duration), duration});
    }
  }
}

void build(NetPlan& plan, std::string_view name, const NetScenarioParams& p,
           util::Xoshiro256& rng) {
  const std::uint64_t burst = std::max<std::uint64_t>(2, p.ops / 16);
  if (name == "torn") {
    // Two resets per site; each window is two ops — the injector lets a
    // short fragment out on the first and tears on the second, so the
    // reset lands mid-envelope on the peer's reader.
    place_windows(plan, NetFaultKind::kConnReset, rng, p, 2, 2);
  } else if (name == "short_write") {
    place_windows(plan, NetFaultKind::kShortWrite, rng, p, 2, burst * 2);
  } else if (name == "eagain") {
    place_windows(plan, NetFaultKind::kEagainStorm, rng, p, 2, burst);
  } else if (name == "corrupt") {
    // Wider than the other bursts: the injector only flips a quarter of
    // in-window writes, so narrow windows could fire zero flips.
    place_windows(plan, NetFaultKind::kByteCorrupt, rng, p, 2, burst * 4);
  } else if (name == "refuse") {
    // Refuse the first few connect attempts per site — exercises backoff
    // without making the endpoint permanently unreachable.
    for (std::size_t site = 0; site < p.sites; ++site) {
      plan.add(NetFaultEvent{NetFaultKind::kConnectRefuse, site, 0, 2});
    }
  } else if (name == "stall") {
    // One long stall per site: both directions frozen for the window, long
    // enough (in loop iterations) to trip a stall-timeout defense.
    place_windows(plan, NetFaultKind::kStall, rng, p, 1,
                  std::max<std::uint64_t>(8, p.ops / 4));
  } else {
    throw std::invalid_argument("NetPlan::scenario: unknown scenario '" +
                                std::string(name) + "'");
  }
}

}  // namespace

NetPlan NetPlan::scenario(std::string_view name,
                          const NetScenarioParams& params) {
  NetPlan plan;
  if (name == "net_none" || name == "none" || name.empty()) return plan;
  util::Xoshiro256 rng(util::derive_seed(params.seed, 0x5EA7));
  if (name == "net_storm") {
    // Everything at once, in a fixed order from one stream — the storm is
    // as reproducible as its parts.
    for (const char* part :
         {"torn", "short_write", "eagain", "corrupt", "stall"}) {
      build(plan, part, params, rng);
    }
    return plan;
  }
  build(plan, name, params, rng);
  return plan;
}

const std::vector<std::string>& NetPlan::scenario_names() {
  static const std::vector<std::string> kNames = {
      "net_none", "torn",   "short_write", "eagain",
      "corrupt",  "refuse", "stall",       "net_storm"};
  return kNames;
}

}  // namespace reads::fault
