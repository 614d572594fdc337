// Resilient cluster client: at-least-once delivery over an unreliable wire.
//
// Wraps the synchronous ClusterClient with the client half of the cluster's
// exactly-once contract. The router remembers every terminal answer in a
// per-stream dedup window keyed by (stream, req_id); this client's job is
// the other half:
//
//  * Track every submitted tick until its terminal reply (kResult or kShed)
//    arrives, bounded by `max_unacked` — the window the router's dedup
//    depth must exceed.
//  * When the connection dies (torn socket, CRC-latched stream, refused
//    reconnect, SIGKILLed router), reconnect with exponential backoff and
//    deterministic jitter (seeded SplitMix64 — wall-clock never feeds the
//    decision stream), then resubmit every unacknowledged tick in req_id
//    order before anything new.
//
// A resubmitted tick the router already answered is served verbatim from
// its dedup window; one still in flight has its answer re-aimed at the new
// connection; one the router never saw just runs. In every case the client
// observes exactly one reply per tick, bit-identical to the single-process
// oracle — at-least-once on the wire, exactly-once in effect.
//
// Retries are bounded by each call's deadline, not a global attempt budget:
// a router outage longer than a poll() timeout surfaces as nullopt, and the
// next call picks the campaign back up where the backoff left it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cluster/client.hpp"
#include "cluster/protocol.hpp"

namespace reads::cluster {

struct ResilientClientConfig {
  double connect_timeout_ms = 1000.0;
  double backoff_initial_ms = 5.0;
  double backoff_max_ms = 250.0;
  /// Seed for the deterministic backoff jitter stream.
  std::uint64_t jitter_seed = 1;
  /// Submission window: submit() refuses (returns false) past this many
  /// unacknowledged ticks. Keep below the router's kDedupWindow.
  std::size_t max_unacked = 32;
};

class ResilientClient {
 public:
  /// Does NOT connect eagerly — the first submit()/poll() does, so a
  /// client may outlive (and predate) the router it talks to.
  explicit ResilientClient(std::string endpoint,
                           ResilientClientConfig cfg = {});

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Queue one tick for at-least-once delivery and try to send it now.
  /// False only when the unacked window is full (poll() first). A send
  /// that fails mid-wire still returns true: the tick is tracked and will
  /// be resubmitted on the next reconnect.
  bool submit(const Submit& s);

  /// Next message from the router, reconnecting and resubmitting as needed
  /// within `timeout_ms`. Terminal replies (kResult/kShed) acknowledge
  /// their tick before being returned.
  std::optional<Message> poll(double timeout_ms);

  bool connected() const noexcept { return conn_ && !conn_->dead(); }
  std::size_t unacked() const noexcept { return unacked_.size(); }
  std::uint64_t reconnects() const noexcept { return reconnects_; }
  std::uint64_t resubmissions() const noexcept { return resubmissions_; }

 private:
  /// Reconnect (backoff + jitter) and resubmit until connected or the
  /// deadline passes. True when a live connection exists on return.
  bool ensure_connected(double deadline_ms);
  void note_ack(const Message& msg);

  std::string endpoint_;
  ResilientClientConfig cfg_;
  std::optional<ClusterClient> conn_;
  /// Unacknowledged ticks by req_id (ascending = per-stream submit order,
  /// which the resubmission pass must preserve).
  std::map<std::uint64_t, Submit> unacked_;
  std::uint64_t jitter_state_ = 0;
  std::size_t attempt_ = 0;  ///< consecutive failures this outage
  std::uint64_t reconnects_ = 0;
  std::uint64_t resubmissions_ = 0;
};

}  // namespace reads::cluster
