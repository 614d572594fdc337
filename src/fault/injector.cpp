#include "fault/injector.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace reads::fault {

Injector::Injector(Plan plan, std::uint64_t seed, std::size_t replicas)
    : plan_(std::move(plan)), seed_(seed), ops_(replicas) {}

void Injector::apply(std::uint32_t sequence,
                     std::vector<net::Delivery>& deliveries) {
  const std::uint64_t tick = sequence;
  current_tick_.store(tick, std::memory_order_relaxed);
  if (plan_.empty()) return;

  std::vector<net::Delivery> duplicates;
  for (auto& d : deliveries) {
    const std::size_t hub = d.packet.hub_id;
    if (plan_.active(FaultKind::kHubOutage, hub, tick)) {
      // The crate is dark: nothing reaches the wire.
      d.dropped = true;
      count(FaultKind::kHubOutage);
      continue;
    }
    if (d.dropped) continue;

    if (plan_.active(FaultKind::kReadingSaturate, hub, tick)) {
      // Pegged ADC: full-scale counts, faithfully checksummed by the hub —
      // only the assembler's plausibility gate can catch these.
      for (auto& r : d.packet.readings) r = 0xFFFFFFFFu;
      net::seal_packet(d.packet);
      count(FaultKind::kReadingSaturate);
    }
    if (plan_.active(FaultKind::kReadingNan, hub, tick)) {
      // NaN at the front-end encodes as zero counts (see encode_reading);
      // again valid on the wire, implausible in content.
      for (auto& r : d.packet.readings) {
        r = net::encode_reading(std::numeric_limits<double>::quiet_NaN());
      }
      net::seal_packet(d.packet);
      count(FaultKind::kReadingNan);
    }
    if (plan_.active(FaultKind::kPacketMalform, hub, tick)) {
      // Hub firmware bug: coherent checksum over a nonsense header.
      const std::uint64_t bits =
          decision_bits(seed_, FaultKind::kPacketMalform, hub, tick);
      switch (bits % 3) {
        case 0: d.packet.first_monitor = static_cast<std::uint16_t>(bits >> 8);
                break;
        case 1: d.packet.hub_id = static_cast<std::uint8_t>(0x80u | hub);
                break;
        default: d.packet.readings.resize(
                     (bits >> 8) % d.packet.readings.size());
                break;
      }
      net::seal_packet(d.packet);
      count(FaultKind::kPacketMalform);
    }
    if (plan_.active(FaultKind::kPacketCorrupt, hub, tick)) {
      // Bit flip in flight, after the hub sealed the CRC: pick a bit from
      // the decision hash and leave the stale CRC in place.
      const std::uint64_t bits =
          decision_bits(seed_, FaultKind::kPacketCorrupt, hub, tick);
      auto& word =
          d.packet.readings[(bits >> 8) % d.packet.readings.size()];
      word ^= 1u << (bits % 32);
      count(FaultKind::kPacketCorrupt);
    }
    if (plan_.active(FaultKind::kPacketDuplicate, hub, tick)) {
      duplicates.push_back(d);
      count(FaultKind::kPacketDuplicate);
    }
  }
  for (auto& d : duplicates) deliveries.push_back(std::move(d));

  if (plan_.active(FaultKind::kPacketReorder, 0, tick)) {
    // Deterministic Fisher-Yates from the decision hash; assembly must be
    // order-independent, so this only exercises that property.
    util::Xoshiro256 rng(
        decision_bits(seed_, FaultKind::kPacketReorder, 0, tick));
    for (std::size_t i = deliveries.size(); i > 1; --i) {
      std::swap(deliveries[i - 1],
                deliveries[static_cast<std::size_t>(rng.uniform_int(i))]);
    }
    count(FaultKind::kPacketReorder);
  }
}

soc::NnIpCore::HangHook Injector::ip_hang_hook() {
  return [this](std::uint64_t /*run*/) {
    const std::uint64_t tick = current_tick_.load(std::memory_order_relaxed);
    if (tick != ip_tick_) {
      ip_tick_ = tick;
      ip_attempt_ = 0;
    }
    ++ip_attempt_;
    if (plan_.active(FaultKind::kNnIpWedge, 0, tick)) {
      count(FaultKind::kNnIpWedge);
      return true;
    }
    if (plan_.active(FaultKind::kNnIpHang, 0, tick) && ip_attempt_ == 1) {
      count(FaultKind::kNnIpHang);
      return true;
    }
    return false;
  };
}

bool Injector::crash_next(std::size_t site) {
  if (site >= ops_.size()) return false;
  const std::uint64_t op =
      ops_[site].fetch_add(1, std::memory_order_relaxed);
  if (plan_.active(FaultKind::kReplicaCrash, site, op)) {
    count(FaultKind::kReplicaCrash);
    return true;
  }
  return false;
}

std::uint64_t Injector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
  return total;
}

}  // namespace reads::fault
