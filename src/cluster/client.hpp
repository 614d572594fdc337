// Synchronous cluster client: the counterpart of the router's wire API for
// benches, tests, and command-line demos.
//
// One connection, blocking convenience calls on top of the nonblocking io
// layer: submit() writes a kSubmit envelope, poll() reassembles whatever
// the router answers, and the admin helpers (stats, shutdown) send a
// request and, for stats, wait for the matching reply type.
// Interleaved non-matching messages (results racing an admin reply on a
// shared connection) are buffered in arrival order and handed back by the
// next poll() — waiting for one reply type never loses another.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cluster/io.hpp"
#include "cluster/protocol.hpp"

namespace reads::cluster {

class ClusterClient {
 public:
  /// Connect and introduce ourselves. Throws std::system_error when the
  /// router is unreachable.
  explicit ClusterClient(const std::string& endpoint,
                         Role role = Role::kClient,
                         double connect_timeout_ms = 5000.0);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  bool connected() const noexcept { return fd_.valid(); }

  /// True once the connection can never produce another message: the
  /// socket died or the envelope stream latched broken. (poll() returning
  /// nullopt alone is ambiguous — it also means a timeout.)
  bool dead() const noexcept {
    return (!fd_.valid() || reader_.broken()) && pending_.empty();
  }

  /// Send one tick. False when the connection died mid-write.
  bool submit(const Submit& s);

  /// Next reassembled message from the router, waiting up to `timeout_ms`;
  /// nullopt on timeout or a dead connection.
  std::optional<Message> poll(double timeout_ms);

  // ---- admin conveniences -------------------------------------------------

  /// Router stats JSON; empty string on timeout.
  std::string stats(double timeout_ms);

  /// Fire-and-forget graceful shutdown request.
  void shutdown_router();

 private:
  bool send(const std::vector<std::uint8_t>& bytes);
  /// Read the wire directly, bypassing `pending_` (wait_for's loop would
  /// otherwise re-examine what it just set aside, forever).
  std::optional<Message> next_from_wire(double timeout_ms);
  std::optional<Message> wait_for(MsgType type, double timeout_ms);

  Fd fd_;
  MessageReader reader_;
  /// Messages that arrived while wait_for() wanted a different type, in
  /// arrival order; poll() serves these before touching the socket.
  std::deque<Message> pending_;
};

}  // namespace reads::cluster
