// Replica server: one process's serving capacity behind the cluster router.
//
// Wraps the in-process serve::Gateway stack (PR 3/4) behind a socket: an
// event loop accepts router connections, decodes kJob envelopes (one jumbo
// whole-ring packet each), converts readings to the backend's input frame
// via a caller-supplied decoder (the bench applies the deployed model's
// standardizer; tests use cheap synthetic backends), and submits to the
// gateway. A dedicated completion thread collects the gateway's futures in
// admission order and writes kResult envelopes back — so the event loop
// never blocks on inference and slow inference never stalls socket reads.
//
// Exactly-once from this process's perspective: every admitted job yields
// exactly one kResult (stop() drains the gateway before the completion
// thread exits, so a graceful shutdown never drops an admitted frame), and
// every refused job yields exactly one kShed. Determinism across replicas
// is inherited from the backend: QuantizedBackend is bit-exact, so any
// replica process loading the same cached firmware returns bit-identical
// answers — the property the router's crash-redispatch relies on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "cluster/io.hpp"
#include "cluster/protocol.hpp"
#include "serve/gateway.hpp"

namespace reads::cluster {

struct ReplicaServerConfig {
  Endpoint listen;
  serve::GatewayConfig gateway;
  /// Expected readings per jumbo packet; jobs with any other count are
  /// shed as kBadFrame (a framing-level sanity check — content integrity
  /// is the packet CRC).
  std::size_t monitors = 260;
};

/// Convert a validated jumbo packet's readings into the backend's input
/// tensor (shape it (monitors, 1), decode counts, standardize, ...).
using FrameDecoder =
    std::function<void(std::span<const std::uint32_t>, tensor::Tensor&)>;

class ReplicaServer {
 public:
  /// Binds immediately (so bound() reports the kernel-assigned port before
  /// run()); one gateway replica per backend.
  ReplicaServer(ReplicaServerConfig cfg,
                std::vector<std::unique_ptr<serve::Backend>> backends,
                FrameDecoder decoder);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Actual listen address (tcp port 0 resolved).
  const Endpoint& bound() const noexcept { return listener_.bound; }

  /// Serve until request_stop(); runs the event loop on the calling thread
  /// and performs the graceful drain (gateway stop + completion flush)
  /// before returning.
  void run();

  /// Thread-safe and async-signal-safe stop request (atomic flag + pipe
  /// write): a SIGTERM handler may call this directly.
  void request_stop() noexcept {
    stop_.store(1, std::memory_order_relaxed);
    wake_.wake();
  }

  serve::Gateway& gateway() noexcept { return *gateway_; }

 private:
  struct Conn {
    Fd fd;
    MessageReader reader;
    /// Serializes kResult/kShed/kStatsReply writes from the completion
    /// thread and the event loop.
    std::mutex write_mutex;
    bool alive = true;
  };

  struct Pending {
    std::uint64_t gid = 0;
    std::shared_ptr<Conn> conn;
    std::future<serve::Response> response;
  };

  void completion_loop();
  void handle_message(const std::shared_ptr<Conn>& conn, const Message& msg);
  void handle_job(const std::shared_ptr<Conn>& conn, const Job& job);
  void send_on(const std::shared_ptr<Conn>& conn,
               const std::vector<std::uint8_t>& bytes);
  void send_shed(const std::shared_ptr<Conn>& conn, std::uint64_t gid,
                 ShedReason reason);

  ReplicaServerConfig cfg_;
  Listener listener_;
  WakePipe wake_;
  std::unique_ptr<serve::Gateway> gateway_;
  FrameDecoder decoder_;
  serve::BoundedQueue<Pending> completions_;
  std::thread completion_thread_;
  std::atomic<int> stop_{0};
  std::map<int, std::shared_ptr<Conn>> conns_;
  std::chrono::steady_clock::time_point started_{};
};

}  // namespace reads::cluster
