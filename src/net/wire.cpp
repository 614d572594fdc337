#include "net/wire.hpp"

#include <algorithm>

namespace reads::net {

namespace {

/// Upper bound on readings per packet; the facility ring is 260 monitors,
/// so this leaves generous headroom for jumbo (whole-ring) packets while
/// still refusing absurd length fields.
constexpr std::size_t kMaxPacketReadings = 65536;

}  // namespace

void append_packet(std::vector<std::uint8_t>& out, const BlmPacket& p) {
  out.reserve(out.size() + packet_wire_size(p));
  put_u8(out, p.hub_id);
  put_u32(out, p.sequence);
  put_u16(out, p.first_monitor);
  put_u32(out, p.crc);
  put_u32(out, static_cast<std::uint32_t>(p.readings.size()));
  for (std::uint32_t r : p.readings) put_u32(out, r);
}

bool PacketDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (broken_) return false;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());

  // Decode every complete packet at the front of the buffer. `off` walks
  // forward so a read that coalesced many packets is consumed in one pass
  // (no quadratic erase-from-front).
  std::size_t off = 0;
  while (buf_.size() - off >= kPacketWireHeader) {
    const std::uint8_t* h = buf_.data() + off;
    const std::uint32_t count = get_u32(h + 11);
    if (count > kMaxPacketReadings) {
      // The length field is the only framing information a byte stream
      // carries; once it is implausible there is no boundary to resync on.
      broken_ = true;
      buf_.clear();
      return false;
    }
    const std::size_t need = kPacketWireHeader + 4 * std::size_t{count};
    if (buf_.size() - off < need) break;  // header complete, payload split

    BlmPacket p;
    p.hub_id = h[0];
    p.sequence = get_u32(h + 1);
    p.first_monitor = get_u16(h + 5);
    p.crc = get_u32(h + 7);
    p.readings.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      p.readings[i] = get_u32(h + kPacketWireHeader + 4 * std::size_t{i});
    }
    ready_.push_back(std::move(p));
    ++decoded_;
    off += need;
  }
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

std::optional<BlmPacket> PacketDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  BlmPacket p = std::move(ready_.front());
  ready_.pop_front();
  return p;
}

}  // namespace reads::net
