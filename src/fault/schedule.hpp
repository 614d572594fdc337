// Shared core of fault::Plan (in-process faults, plan.hpp) and
// fault::NetPlan (socket faults, net_plan.hpp): a schedule of windows, each
// activating one fault kind at one site over a range of a per-site counter
// (ticks or backend ops for Plan, I/O ops for NetPlan), plus the stateless
// decision stream both injectors draw their per-fault choices from. Every
// placement and every decision is a pure function of the seed, so a
// campaign replays bit-for-bit from (scenario, seed) alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace reads::fault {

/// `kind` is active at `site` for every counter value in
/// [start, start + duration).
template <typename Kind>
struct Window {
  Kind kind{};
  std::size_t site = 0;
  std::uint64_t start = 0;
  std::uint64_t duration = 1;

  bool covers(std::uint64_t at) const noexcept {
    return at >= start && at < start + duration;
  }
  bool operator==(const Window&) const = default;
};

template <typename Kind>
class Schedule {
 public:
  void add(Window<Kind> w) { events_.push_back(w); }

  /// Is `kind` active at `site` when that site's counter reads `at`?
  bool active(Kind kind, std::size_t site, std::uint64_t at) const noexcept {
    return std::any_of(events_.begin(), events_.end(), [&](const auto& e) {
      return e.kind == kind && e.site == site && e.covers(at);
    });
  }

  /// Does the schedule contain any event of `kind` at all?
  bool any(Kind kind) const noexcept {
    return std::any_of(events_.begin(), events_.end(),
                       [&](const auto& e) { return e.kind == kind; });
  }

  bool empty() const noexcept { return events_.empty(); }
  const std::vector<Window<Kind>>& events() const noexcept { return events_; }

 private:
  std::vector<Window<Kind>> events_;
};

/// Start of a `duration`-long window drawn inside the middle band
/// [horizon/10, 8*horizon/10): every campaign keeps a clean warm-up before
/// its first fault and a clean recovery tail after its last one.
inline std::uint64_t band_start(util::Xoshiro256& rng, std::uint64_t horizon,
                                std::uint64_t duration) {
  const std::uint64_t lo = horizon / 10;
  const std::uint64_t hi = (8 * horizon) / 10;
  return lo + rng.uniform_int(hi > lo + duration ? hi - lo - duration : 1);
}

/// One SplitMix64 step over a seed derived from every coordinate: the same
/// (seed, kind, site, axis) gives the same bits on any thread, in any order.
template <typename Kind>
std::uint64_t decision_bits(std::uint64_t seed, Kind kind, std::size_t site,
                            std::uint64_t axis) noexcept {
  util::SplitMix64 sm(util::derive_seed(
      seed, (static_cast<std::uint64_t>(kind) << 56) ^
                (static_cast<std::uint64_t>(site) << 40) ^ axis));
  return sm.next();
}

}  // namespace reads::fault
