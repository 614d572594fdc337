#include "fault/net_chaos.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace reads::fault {

NetInjector::NetInjector(NetPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

void NetInjector::on_open(int fd, bool outbound) {
  (void)outbound;
  std::lock_guard lock(mutex_);
  SiteState st;
  st.site = next_site_++;
  fds_[fd] = st;
}

void NetInjector::on_close(int fd) {
  std::lock_guard lock(mutex_);
  fds_.erase(fd);
}

bool NetInjector::refuse_connect(const cluster::Endpoint& ep) {
  std::lock_guard lock(mutex_);
  auto [it, fresh] = connects_.try_emplace(ep.str());
  if (fresh) it->second.site = next_connect_site_++;
  const std::uint64_t attempt = it->second.attempts++;
  if (!enabled()) return false;
  if (plan_.active(NetFaultKind::kConnectRefuse, it->second.site, attempt)) {
    count(NetFaultKind::kConnectRefuse);
    return true;
  }
  return false;
}

std::ptrdiff_t NetInjector::gate_write(int fd, std::size_t len) {
  std::lock_guard lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return static_cast<std::ptrdiff_t>(len);
  SiteState& st = it->second;
  const std::uint64_t op = st.write_ops++;
  if (!enabled()) return static_cast<std::ptrdiff_t>(len);
  const std::size_t site = st.site;
  if (plan_.active(NetFaultKind::kConnReset, site, op)) {
    if (!st.reset_armed && len > 1) {
      // First hit: let a short fragment out so the tear lands mid-envelope
      // on the peer's reader, the nastiest place a reset can land.
      st.reset_armed = true;
      return static_cast<std::ptrdiff_t>(
          1 + decision_bits(seed_, NetFaultKind::kConnReset, site, op) %
                  (len / 2 + 1));
    }
    st.reset_armed = false;
    count(NetFaultKind::kConnReset);
    return kTear;
  }
  if (plan_.active(NetFaultKind::kStall, site, op)) {
    count(NetFaultKind::kStall);
    return 0;
  }
  if (plan_.active(NetFaultKind::kEagainStorm, site, op) &&
      (decision_bits(seed_, NetFaultKind::kEagainStorm, site, op) & 1) !=
          0) {
    count(NetFaultKind::kEagainStorm);
    return 0;
  }
  if (plan_.active(NetFaultKind::kShortWrite, site, op)) {
    count(NetFaultKind::kShortWrite);
    const auto bits =
        decision_bits(seed_, NetFaultKind::kShortWrite, site, op);
    return static_cast<std::ptrdiff_t>(
        std::min(len, 1 + static_cast<std::size_t>(bits % 7)));
  }
  return static_cast<std::ptrdiff_t>(len);
}

void NetInjector::mangle_write(int fd, std::uint8_t* data, std::size_t len) {
  std::lock_guard lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end() || len == 0) return;
  SiteState& st = it->second;
  const std::uint64_t base = st.bytes_written;
  st.bytes_written += len;
  if (!enabled()) return;
  // Corruption windows ride the op axis (gate_write just advanced it); the
  // choice of victim byte and bit is a pure hash of (seed, site,
  // byte-offset), firing on a quarter of in-window writes.
  if (!plan_.active(NetFaultKind::kByteCorrupt, st.site, st.write_ops - 1)) {
    return;
  }
  const std::uint64_t h =
      decision_bits(seed_, NetFaultKind::kByteCorrupt, st.site, base);
  if ((h & 3) != 0) return;
  data[(h >> 8) % len] ^= static_cast<std::uint8_t>(1u << ((h >> 32) & 7));
  count(NetFaultKind::kByteCorrupt);
}

bool NetInjector::gate_read(int fd) {
  std::lock_guard lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return true;
  SiteState& st = it->second;
  const std::uint64_t op = st.read_ops++;
  if (!enabled()) return true;
  if (plan_.active(NetFaultKind::kStall, st.site, op)) {
    count(NetFaultKind::kStall);
    return false;
  }
  if (plan_.active(NetFaultKind::kEagainStorm, st.site, op) &&
      (decision_bits(seed_, NetFaultKind::kEagainStorm, st.site,
                     op ^ 0x9E37u) &
       1) != 0) {
    count(NetFaultKind::kEagainStorm);
    return false;
  }
  return true;
}

void NetInjector::mangle_read(int fd, std::uint8_t* data, std::size_t len) {
  std::lock_guard lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end() || len == 0) return;
  SiteState& st = it->second;
  const std::uint64_t base = st.bytes_read;
  st.bytes_read += len;
  if (!enabled()) return;
  if (!plan_.active(NetFaultKind::kByteCorrupt, st.site, st.read_ops - 1)) {
    return;
  }
  const std::uint64_t h =
      decision_bits(seed_, NetFaultKind::kByteCorrupt, st.site,
                    base ^ 0xC0FFEEull);
  if ((h & 3) != 1) return;  // decorrelated from the write-side flips
  data[(h >> 8) % len] ^= static_cast<std::uint8_t>(1u << ((h >> 32) & 7));
  count(NetFaultKind::kByteCorrupt);
}

std::uint64_t NetInjector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
  return total;
}

}  // namespace reads::fault
