// fault::Injector — turns an active Plan event into an actual fault.
//
// The injector sits on the seams the pipeline already exposes: the
// FacilityLink delivery tap (packet faults), the NnIpCore hang hook (IP
// faults), and a throwing Backend wrapper (replica crashes, see
// chaos_backend.hpp). It owns no clocks and no mutable RNG streams for its
// decisions: every choice is a pure hash of (seed, kind, site, tick), so
// injection is bit-reproducible regardless of thread interleaving — replica
// workers may race, the faults they observe do not.
//
// Crucially, injection never perturbs the pipeline's own RNG streams (the
// machine model, hub jitter, OS jitter all keep their sequences), which is
// what lets bench_chaos compare a faulted run against the fault-free
// reference tick by tick.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "net/hub.hpp"
#include "soc/nn_ip.hpp"

namespace reads::fault {

class Injector {
 public:
  Injector(Plan plan, std::uint64_t seed, std::size_t replicas = 0);

  const Plan& plan() const noexcept { return plan_; }

  /// Delivery tap body: mutate one tick's hub deliveries per the plan.
  /// Install via FacilityLink::set_delivery_tap (or call directly in
  /// tests). Also advances the injector's notion of the current tick for
  /// the IP hook.
  void apply(std::uint32_t sequence, std::vector<net::Delivery>& deliveries);

  /// Hook for NnIpCore/ArriaSocSystem::set_ip_hang_hook. kNnIpHang wedges
  /// only the first attempt of each tick (the watchdog's reset-and-retry
  /// then succeeds); kNnIpWedge wedges every attempt (forcing the HPS float
  /// fallback).
  soc::NnIpCore::HangHook ip_hang_hook();

  /// Replica-crash decision for backend op on `site`; each call advances
  /// that site's op counter. Thread-safe: sites are independent atomics and
  /// the verdict is a pure function of (site, op index).
  bool crash_next(std::size_t site);

  /// Faults actually injected (not merely scheduled) per kind.
  std::uint64_t injected(FaultKind kind) const noexcept {
    return injected_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t injected_total() const noexcept;

 private:
  void count(FaultKind kind) noexcept {
    injected_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  Plan plan_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> current_tick_{0};
  /// IP-hook attempt tracking; only touched from the (single) SoC thread.
  std::uint64_t ip_tick_ = ~0ull;
  std::uint64_t ip_attempt_ = 0;
  /// Per-replica backend-op counters for the crash-fault tick axis.
  std::vector<std::atomic<std::uint64_t>> ops_;
  std::array<std::atomic<std::uint64_t>, 10> injected_{};
};

}  // namespace reads::fault
