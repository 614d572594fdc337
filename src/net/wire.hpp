// Byte-level wire codec for `BlmPacket` streams.
//
// Until now packets travelled between simulated components as in-memory
// structs; the cluster tier (DESIGN.md §10) ships them over real TCP and
// Unix-domain sockets, where read() returns arbitrary fragments: a packet
// may arrive one byte at a time, its CRC trailer may be split across two
// reads, and two packets may coalesce into one. append_packet() defines the
// canonical little-endian serialization and PacketDecoder reassembles a
// byte stream back into packets across any chunk boundary — framing is
// length-delimited by the reading-count field, and content trust stays
// where it always was: the CRC gauntlet in FrameAssembler.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace reads::net {

// ---- little-endian primitives (shared with the cluster protocol) --------

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

inline std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// ---- packet serialization ----------------------------------------------

/// Serialized header: hub_id(1) + sequence(4) + first_monitor(2) + crc(4)
/// + reading_count(4). The CRC is the packet's own seal (packet_crc), not a
/// framing checksum — framing integrity is the transport's job (TCP/UDS are
/// reliable byte streams); content integrity stays end-to-end.
inline constexpr std::size_t kPacketWireHeader = 15;

/// Exact serialized size of `p` (header + 4 bytes per reading).
inline std::size_t packet_wire_size(const BlmPacket& p) noexcept {
  return kPacketWireHeader + 4 * p.readings.size();
}

/// Append the canonical serialization of `p` (including its current CRC —
/// callers seal first) to `out`.
void append_packet(std::vector<std::uint8_t>& out, const BlmPacket& p);

/// Reassembles a `BlmPacket` byte stream delivered in arbitrary fragments.
///
/// feed() buffers bytes and decodes every complete packet into an internal
/// ready queue drained with next(). Decoding never validates content (CRC,
/// layout, plausibility) — that is FrameAssembler's gauntlet — but it does
/// bound the reading count: a stream claiming more than 65,536 readings
/// per packet cannot be framed (the length field itself is untrusted
/// input) and permanently breaks the decoder, because a byte stream with a
/// corrupt length field has no packet boundaries left to recover.
/// Connection owners drop broken streams.
class PacketDecoder {
 public:
  /// Buffer `bytes` and decode every now-complete packet. Returns false —
  /// and ignores all further input — once the stream is broken.
  bool feed(std::span<const std::uint8_t> bytes);
  bool feed(const std::uint8_t* data, std::size_t len) {
    return feed(std::span<const std::uint8_t>(data, len));
  }

  /// Next decoded packet in stream order; nullopt when none is complete.
  std::optional<BlmPacket> next();

  bool broken() const noexcept { return broken_; }
  std::size_t ready() const noexcept { return ready_.size(); }
  /// Buffered bytes of the (incomplete) packet currently being assembled.
  std::size_t pending_bytes() const noexcept { return buf_.size(); }
  std::uint64_t packets_decoded() const noexcept { return decoded_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::deque<BlmPacket> ready_;
  bool broken_ = false;
  std::uint64_t decoded_ = 0;
};

}  // namespace reads::net
