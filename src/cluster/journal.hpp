// Write-ahead journal for router survivability.
//
// The router's hard problem after a SIGKILL is not its own state — jobs in
// flight re-execute bit-identically anywhere — it is the promises it made
// to *other* processes: which replicas form the ring (so a restart can
// re-register them without an operator) and which (stream, req_id) ticks
// were already answered (so a reconnecting client's resubmission is deduped
// to the stored reply instead of double-answered). The SLO budgets are not
// journaled: every incarnation takes them from its own RouterConfig.
// RouterJournal persists exactly that minimal set as an append-only record
// stream:
//
//   [type : u8] [len : u32 LE] [payload : len bytes] [crc : u32 LE]
//
// sealed like an envelope (cluster::seal_crc: CRC-32 over type + payload).
// Records are write(2)-appended with no fsync: the threat model is process
// death (SIGKILL, OOM-kill, crash) — the page cache survives all of those —
// not kernel or power failure, which for an edge control rack is the
// facility-wide machine-protection system's problem, not the router's.
// Replay stops at the first short or CRC-failing record, so a record torn
// by the kill itself is discarded instead of trusted.
//
// Record types:
//   kNode  — ring membership change: node id, endpoint, alive flag.
//            Replay is last-writer-wins per node id.
//   (type 2 is taken: older journals hold SLO records there, which
//    replay skips like any unknown type; the records around them recover)
//   kReply — one terminal answer: stream, req_id, serialized reply
//            envelope. Replay refills the dedup windows (bounded, FIFO).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/io.hpp"

namespace reads::cluster {

struct JournalNode {
  std::uint64_t node = 0;
  std::string endpoint;
  bool alive = true;
};

struct JournalReply {
  std::uint64_t stream = 0;
  std::uint64_t req_id = 0;
  std::vector<std::uint8_t> reply;  ///< the terminal envelope, verbatim
};

/// Everything a replay recovered, in record order.
struct JournalState {
  std::vector<JournalNode> nodes;    ///< last-writer-wins, alive only
  std::vector<JournalReply> replies;
  std::uint64_t max_node_id = 0;     ///< highest node id ever journaled
};

class RouterJournal {
 public:
  RouterJournal() = default;

  /// Open (creating if absent) for appending. Throws std::system_error.
  explicit RouterJournal(const std::string& path);

  bool open() const noexcept { return fd_.valid(); }
  const std::string& path() const noexcept { return path_; }

  void record_node(const JournalNode& n);
  void record_reply(std::uint64_t stream, std::uint64_t req_id,
                    const std::vector<std::uint8_t>& reply);

  /// Replay an existing journal file; empty state when the file is missing
  /// or empty. Replay never throws on a damaged tail — it returns what was
  /// durable and valid.
  static JournalState replay(const std::string& path);

 private:
  void append(std::uint8_t type, const std::vector<std::uint8_t>& payload);

  std::string path_;
  Fd fd_;
};

}  // namespace reads::cluster
