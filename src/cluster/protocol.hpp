// Length-delimited message protocol of the cluster tier.
//
// Every message is one envelope on a reliable byte stream:
//
//   [payload_len : u32 LE] [type : u8] [crc : u32 LE] [payload : len bytes]
//
// The CRC-32 (net::Crc32, the hub-packet polynomial) covers the type byte
// and the payload. TCP/UDS already guarantee ordered delivery, so the CRC
// is not about random line noise — it is the torn-stream detector: a
// chaos-injected (or radiation-flipped) byte anywhere in an envelope makes
// the reader latch broken() instead of mis-framing, and the connection
// owner tears the connection down. Retries then ride the (stream, seq)
// idempotency contract (router dedup window), so corruption degrades to a
// reconnect, never to a wrong answer.
//
// Payloads reuse the little-endian primitives of net/wire.hpp; BlmPackets
// inside kSubmit/kJob payloads use net::append_packet's canonical
// serialization, so the hub wire format and the cluster wire format are the
// same bytes. MessageReader reassembles envelopes across arbitrary read()
// fragment boundaries exactly as net::PacketDecoder does for raw packet
// streams; an implausible length field or a CRC mismatch permanently
// breaks the stream (length-delimited framing has nothing to resync on).
//
// Message flow:
//   client -> router   kHello, kSubmit (one tick: the stream's hub packets)
//   router -> client   kResult | kShed  (exactly one per accepted submit)
//   router -> replica  kHello, kJob (one jumbo whole-ring packet)
//   replica -> router  kResult | kShed  (exactly one per job)
//   admin  -> router   kStatsRequest / kShutdown; router answers
//                      kStatsReply
// Membership is not on the wire: it changes only through the router's
// in-process Router::add_replica / remove_replica.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace reads::cluster {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// Envelope header: payload length (4) + type (1) + CRC-32 (4).
inline constexpr std::size_t kEnvelopeHeader = 9;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kSubmit = 2,
  kJob = 3,
  kResult = 4,
  kShed = 5,
  // 6-8 are taken: older peers sent wire membership messages with them.
  kStatsRequest = 9,
  kStatsReply = 10,
  kShutdown = 11,
};

enum class Role : std::uint8_t { kClient = 1, kReplica = 2, kAdmin = 3 };

/// Why a submit/job was refused. Mirrors serve::RejectReason numerically
/// for the reasons both layers share, and extends it with cluster-only
/// outcomes.
enum class ShedReason : std::uint8_t {
  kPredictedLate = 1,
  kQueueFull = 2,
  kShutdown = 3,
  kNoReplica = 10,   ///< ring empty (every replica crashed out)
  kBadFrame = 11,    ///< the tick failed the assembler's validation gauntlet
  kHeldTooLong = 12, ///< resharding hold overflowed or outlived the deadline
};

struct Hello {
  Role role = Role::kClient;
  std::uint32_t version = kProtocolVersion;
};

/// One client tick: the stream's hub packets for one sequence number.
struct Submit {
  std::uint64_t stream = 0;
  std::uint64_t req_id = 0;
  std::uint8_t slo = 1;  ///< 0 = hard real-time, 1 = best effort
  std::vector<net::BlmPacket> packets;
};

/// One routed frame: the assembled whole-ring readings re-sealed as a
/// single jumbo packet (hub_id 0, first_monitor 0, `monitors` readings).
struct Job {
  std::uint64_t gid = 0;  ///< router-global id (dedup key for exactly-once)
  std::uint64_t stream = 0;
  std::uint8_t slo = 1;
  double deadline_ms = 0.0;  ///< remaining budget when the job was sent
  net::BlmPacket packet;
};

/// One inference answer. `id` is the job gid on the replica->router leg and
/// the client req_id on the router->client leg (the router rewrites it).
struct Result {
  std::uint64_t id = 0;
  std::uint8_t deadline_met = 1;
  std::uint64_t model_epoch = 0;
  std::vector<std::uint32_t> dims;  ///< tensor shape
  std::vector<float> data;          ///< row-major values, bit-exact
};

struct Shed {
  std::uint64_t id = 0;  ///< gid or req_id, same rewriting as Result
  ShedReason reason = ShedReason::kQueueFull;
};

struct StatsReply {
  std::string json;
};

// ---- encoding -----------------------------------------------------------
// begin_msg/end_msg bracket a payload written directly into `out`, so a
// message is serialized in place with no intermediate buffer:
//   auto at = begin_msg(out, MsgType::kJob); ...payload...; end_msg(out, at);

std::size_t begin_msg(std::vector<std::uint8_t>& out, MsgType type);
void end_msg(std::vector<std::uint8_t>& out, std::size_t at);

/// The seal of an envelope and of a journal record: CRC-32 (net::Crc32)
/// over the type byte followed by the payload.
std::uint32_t seal_crc(std::uint8_t type, const std::uint8_t* payload,
                       std::size_t len) noexcept;

/// A string as [len : u32 LE] [bytes], the encoding of every string field.
void put_string(std::vector<std::uint8_t>& out, const std::string& s);

void append_hello(std::vector<std::uint8_t>& out, const Hello& m);
void append_submit(std::vector<std::uint8_t>& out, const Submit& m);
void append_job(std::vector<std::uint8_t>& out, const Job& m);
void append_result(std::vector<std::uint8_t>& out, const Result& m);
void append_shed(std::vector<std::uint8_t>& out, const Shed& m);
void append_stats_request(std::vector<std::uint8_t>& out);
void append_stats_reply(std::vector<std::uint8_t>& out, const StatsReply& m);
void append_shutdown(std::vector<std::uint8_t>& out);

// ---- decoding -----------------------------------------------------------
// Payload parsers throw std::runtime_error on truncated/overlong payloads;
// connection owners treat that as a broken peer and drop the connection
// (never the process).

Hello decode_hello(std::span<const std::uint8_t> payload);
Submit decode_submit(std::span<const std::uint8_t> payload);
Job decode_job(std::span<const std::uint8_t> payload);
Result decode_result(std::span<const std::uint8_t> payload);
Shed decode_shed(std::span<const std::uint8_t> payload);
StatsReply decode_stats_reply(std::span<const std::uint8_t> payload);

/// One reassembled envelope.
struct Message {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

/// Reassembles envelopes from arbitrary read() fragments (same contract as
/// net::PacketDecoder: feed buffers bytes, next() drains complete
/// messages). An implausible length or an envelope CRC mismatch
/// permanently breaks the stream — next() keeps draining messages that
/// were already verified, but no later byte is ever trusted.
class MessageReader {
 public:
  bool feed(std::span<const std::uint8_t> bytes);
  bool feed(const std::uint8_t* data, std::size_t len) {
    return feed(std::span<const std::uint8_t>(data, len));
  }
  std::optional<Message> next();

  bool broken() const noexcept { return broken_; }
  std::size_t ready() const noexcept { return ready_.size(); }
  std::size_t pending_bytes() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::deque<Message> ready_;
  bool broken_ = false;
};

}  // namespace reads::cluster
