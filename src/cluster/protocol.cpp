#include "cluster/protocol.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace reads::cluster {

namespace {

using net::get_u16;
using net::get_u32;
using net::get_u64;
using net::put_u16;
using net::put_u32;
using net::put_u64;
using net::put_u8;

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked forward reader over a payload span.
struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t off = 0;

  void need(std::size_t n) const {
    if (data.size() - off < n) {
      throw std::runtime_error("cluster protocol: truncated payload");
    }
  }
  std::uint8_t u8() {
    need(1);
    return data[off++];
  }
  std::uint16_t u16() {
    need(2);
    const auto v = get_u16(data.data() + off);
    off += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    const auto v = get_u32(data.data() + off);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const auto v = get_u64(data.data() + off);
    off += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data.data() + off), n);
    off += n;
    return s;
  }
  net::BlmPacket packet() {
    net::BlmPacket p;
    p.hub_id = u8();
    p.sequence = u32();
    p.first_monitor = u16();
    p.crc = u32();
    const std::uint32_t count = u32();
    // An inner packet cannot be larger than the (already bounded) envelope
    // that carries it; this check just keeps resize honest on garbage.
    need(4 * std::size_t{count});
    p.readings.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) p.readings[i] = u32();
    return p;
  }
  void done() const {
    if (off != data.size()) {
      throw std::runtime_error("cluster protocol: trailing payload bytes");
    }
  }
};

}  // namespace

namespace {

/// Generous payload bound: the largest legitimate message is a stats reply
/// with retained latency samples, a few MB at bench scale.
constexpr std::size_t kMaxPayload = 64u << 20;

void patch_u32(std::vector<std::uint8_t>& out, std::size_t at,
               std::uint32_t v) noexcept {
  out[at] = static_cast<std::uint8_t>(v & 0xFFu);
  out[at + 1] = static_cast<std::uint8_t>((v >> 8) & 0xFFu);
  out[at + 2] = static_cast<std::uint8_t>((v >> 16) & 0xFFu);
  out[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

std::uint32_t seal_crc(std::uint8_t type, const std::uint8_t* payload,
                       std::size_t len) noexcept {
  net::Crc32 crc;
  crc.add_byte(type);
  for (std::size_t i = 0; i < len; ++i) crc.add_byte(payload[i]);
  return crc.value();
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::size_t begin_msg(std::vector<std::uint8_t>& out, MsgType type) {
  const std::size_t at = out.size();
  put_u32(out, 0);  // payload length, patched by end_msg
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, 0);  // envelope CRC, patched by end_msg
  return at;
}

void end_msg(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::size_t payload = out.size() - at - kEnvelopeHeader;
  patch_u32(out, at, static_cast<std::uint32_t>(payload));
  patch_u32(out, at + 5,
            seal_crc(out[at + 4], out.data() + at + kEnvelopeHeader, payload));
}

void append_hello(std::vector<std::uint8_t>& out, const Hello& m) {
  const auto at = begin_msg(out, MsgType::kHello);
  put_u8(out, static_cast<std::uint8_t>(m.role));
  put_u32(out, m.version);
  end_msg(out, at);
}

void append_submit(std::vector<std::uint8_t>& out, const Submit& m) {
  const auto at = begin_msg(out, MsgType::kSubmit);
  put_u64(out, m.stream);
  put_u64(out, m.req_id);
  put_u8(out, m.slo);
  put_u8(out, static_cast<std::uint8_t>(m.packets.size()));
  for (const auto& p : m.packets) net::append_packet(out, p);
  end_msg(out, at);
}

void append_job(std::vector<std::uint8_t>& out, const Job& m) {
  const auto at = begin_msg(out, MsgType::kJob);
  put_u64(out, m.gid);
  put_u64(out, m.stream);
  put_u8(out, m.slo);
  put_f64(out, m.deadline_ms);
  net::append_packet(out, m.packet);
  end_msg(out, at);
}

void append_result(std::vector<std::uint8_t>& out, const Result& m) {
  const auto at = begin_msg(out, MsgType::kResult);
  put_u64(out, m.id);
  put_u8(out, m.deadline_met);
  put_u64(out, m.model_epoch);
  put_u8(out, static_cast<std::uint8_t>(m.dims.size()));
  for (std::uint32_t d : m.dims) put_u32(out, d);
  put_u32(out, static_cast<std::uint32_t>(m.data.size()));
  for (float v : m.data) put_u32(out, std::bit_cast<std::uint32_t>(v));
  end_msg(out, at);
}

void append_shed(std::vector<std::uint8_t>& out, const Shed& m) {
  const auto at = begin_msg(out, MsgType::kShed);
  put_u64(out, m.id);
  put_u8(out, static_cast<std::uint8_t>(m.reason));
  end_msg(out, at);
}

void append_stats_request(std::vector<std::uint8_t>& out) {
  const auto at = begin_msg(out, MsgType::kStatsRequest);
  end_msg(out, at);
}

void append_stats_reply(std::vector<std::uint8_t>& out, const StatsReply& m) {
  const auto at = begin_msg(out, MsgType::kStatsReply);
  put_string(out, m.json);
  end_msg(out, at);
}

void append_shutdown(std::vector<std::uint8_t>& out) {
  const auto at = begin_msg(out, MsgType::kShutdown);
  end_msg(out, at);
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  Hello m;
  m.role = static_cast<Role>(c.u8());
  m.version = c.u32();
  c.done();
  return m;
}

Submit decode_submit(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  Submit m;
  m.stream = c.u64();
  m.req_id = c.u64();
  m.slo = c.u8();
  const std::uint8_t n = c.u8();
  m.packets.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i) m.packets.push_back(c.packet());
  c.done();
  return m;
}

Job decode_job(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  Job m;
  m.gid = c.u64();
  m.stream = c.u64();
  m.slo = c.u8();
  m.deadline_ms = c.f64();
  m.packet = c.packet();
  c.done();
  return m;
}

Result decode_result(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  Result m;
  m.id = c.u64();
  m.deadline_met = c.u8();
  m.model_epoch = c.u64();
  const std::uint8_t rank = c.u8();
  m.dims.resize(rank);
  for (std::uint8_t i = 0; i < rank; ++i) m.dims[i] = c.u32();
  const std::uint32_t n = c.u32();
  c.need(4 * std::size_t{n});
  m.data.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.data[i] = std::bit_cast<float>(c.u32());
  }
  c.done();
  return m;
}

Shed decode_shed(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  Shed m;
  m.id = c.u64();
  m.reason = static_cast<ShedReason>(c.u8());
  c.done();
  return m;
}

StatsReply decode_stats_reply(std::span<const std::uint8_t> payload) {
  Cursor c{payload};
  StatsReply m;
  m.json = c.str();
  c.done();
  return m;
}

bool MessageReader::feed(std::span<const std::uint8_t> bytes) {
  if (broken_) return false;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  std::size_t off = 0;
  // The length field alone decides plausibility, so it is checked as soon
  // as its 4 bytes arrive — a corrupted length must not make the reader
  // wait forever for a phantom payload.
  while (buf_.size() - off >= 4) {
    const std::uint32_t len = net::get_u32(buf_.data() + off);
    if (len > kMaxPayload) {
      broken_ = true;
      buf_.clear();
      return false;
    }
    const std::size_t need = kEnvelopeHeader + len;
    if (buf_.size() - off < need) break;
    const std::uint8_t type = buf_[off + 4];
    const std::uint32_t wire_crc = net::get_u32(buf_.data() + off + 5);
    if (wire_crc !=
        seal_crc(type, buf_.data() + off + kEnvelopeHeader, len)) {
      // One flipped bit anywhere in the envelope (header or payload) lands
      // here: latch broken instead of handing a mis-framed or silently
      // altered message upward.
      broken_ = true;
      buf_.clear();
      return false;
    }
    Message m;
    m.type = static_cast<MsgType>(type);
    m.payload.assign(
        buf_.begin() + static_cast<std::ptrdiff_t>(off + kEnvelopeHeader),
        buf_.begin() + static_cast<std::ptrdiff_t>(off + need));
    ready_.push_back(std::move(m));
    off += need;
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

std::optional<Message> MessageReader::next() {
  if (ready_.empty()) return std::nullopt;
  Message m = std::move(ready_.front());
  ready_.pop_front();
  return m;
}

}  // namespace reads::cluster
