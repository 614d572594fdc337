// fault::NetInjector — turns an active NetPlan event into socket mayhem.
//
// The injector implements cluster::IoTap, the one seam the io layer
// exposes (install with NetChaosGuard or cluster::set_io_tap). It owns no
// clocks and no mutable RNG streams for its decisions: every verdict is a
// pure hash of (seed, kind, site, op-or-byte-offset), so a chaos campaign
// is bit-reproducible regardless of thread interleaving — and, exactly as
// with PR 3's in-process Injector, the pipeline's own RNG streams are
// never touched, which is what lets the chaos bench compare a tormented
// run against the fault-free oracle value for value.
//
// Site identity is process-local connection open order (NetPlan header
// comment); connect-refusal sites are distinct-endpoint first-seen order
// with the attempt index as the op axis. Untracked fds (wake pipes,
// listeners, fds opened before installation) pass through untouched, as
// does everything while the injector is disable()d — benches flip that
// around admin/stats traffic so chaos only ever lands on the data path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cluster/io.hpp"
#include "fault/net_plan.hpp"

namespace reads::fault {

class NetInjector final : public cluster::IoTap {
 public:
  NetInjector(NetPlan plan, std::uint64_t seed);

  const NetPlan& plan() const noexcept { return plan_; }

  /// Disabled = fully transparent (still tracks opens/closes so site
  /// numbering stays stable across a pause).
  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // ---- cluster::IoTap ----------------------------------------------------
  void on_open(int fd, bool outbound) override;
  void on_close(int fd) override;
  bool refuse_connect(const cluster::Endpoint& ep) override;
  std::ptrdiff_t gate_write(int fd, std::size_t len) override;
  void mangle_write(int fd, std::uint8_t* data, std::size_t len) override;
  bool gate_read(int fd) override;
  void mangle_read(int fd, std::uint8_t* data, std::size_t len) override;

  /// Faults actually injected (not merely scheduled) per kind.
  std::uint64_t injected(NetFaultKind kind) const noexcept {
    return injected_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t injected_total() const noexcept;

 private:
  struct SiteState {
    std::size_t site = 0;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    bool reset_armed = false;  ///< kConnReset: short fragment, then tear
  };
  struct ConnectState {
    std::size_t site = 0;
    std::uint64_t attempts = 0;
  };

  void count(NetFaultKind kind) noexcept {
    injected_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  NetPlan plan_;
  std::uint64_t seed_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  std::unordered_map<int, SiteState> fds_;
  std::unordered_map<std::string, ConnectState> connects_;
  std::size_t next_site_ = 0;
  std::size_t next_connect_site_ = 0;
  std::array<std::atomic<std::uint64_t>, 6> injected_{};
};

/// Scoped installation: the tap is live for the guard's lifetime and
/// guaranteed cleared before the injector can die.
class NetChaosGuard {
 public:
  explicit NetChaosGuard(NetInjector& injector) {
    cluster::set_io_tap(&injector);
  }
  ~NetChaosGuard() { cluster::set_io_tap(nullptr); }
  NetChaosGuard(const NetChaosGuard&) = delete;
  NetChaosGuard& operator=(const NetChaosGuard&) = delete;
};

}  // namespace reads::fault
