#include "cluster/replica_server.hpp"

#include <utility>
#include <vector>

namespace reads::cluster {

namespace {

/// Completion FIFO capacity. The event loop blocks here when the backend
/// falls this far behind — explicit backpressure to the router, whose
/// per-replica outstanding cap is smaller than this.
constexpr std::size_t kCompletionCapacity = 1024;

ShedReason to_shed_reason(serve::RejectReason r) {
  switch (r) {
    case serve::RejectReason::kPredictedLate:
      return ShedReason::kPredictedLate;
    case serve::RejectReason::kQueueFull:
      return ShedReason::kQueueFull;
    default:
      return ShedReason::kShutdown;
  }
}

}  // namespace

ReplicaServer::ReplicaServer(
    ReplicaServerConfig cfg,
    std::vector<std::unique_ptr<serve::Backend>> backends,
    FrameDecoder decoder)
    : cfg_(std::move(cfg)),
      listener_(listen_on(cfg_.listen)),
      wake_(make_wake_pipe()),
      gateway_(std::make_unique<serve::Gateway>(std::move(backends),
                                                cfg_.gateway)),
      decoder_(std::move(decoder)),
      completions_(kCompletionCapacity) {}

ReplicaServer::~ReplicaServer() {
  request_stop();
  completions_.close();
  if (completion_thread_.joinable()) completion_thread_.join();
}

void ReplicaServer::send_on(const std::shared_ptr<Conn>& conn,
                            const std::vector<std::uint8_t>& bytes) {
  std::lock_guard lock(conn->write_mutex);
  if (!conn->alive) return;
  if (!write_all(conn->fd.get(), bytes.data(), bytes.size())) {
    // Peer gone mid-write; the event loop will reap the fd on its next
    // read. Results for a dead router are undeliverable by definition.
    conn->alive = false;
  }
}

void ReplicaServer::send_shed(const std::shared_ptr<Conn>& conn,
                              std::uint64_t gid, ShedReason reason) {
  std::vector<std::uint8_t> out;
  append_shed(out, Shed{gid, reason});
  send_on(conn, out);
}

void ReplicaServer::handle_job(const std::shared_ptr<Conn>& conn,
                               const Job& job) {
  if (stop_.load(std::memory_order_relaxed) != 0) {
    send_shed(conn, job.gid, ShedReason::kShutdown);
    return;
  }
  if (job.packet.readings.size() != cfg_.monitors ||
      !net::packet_crc_ok(job.packet)) {
    send_shed(conn, job.gid, ShedReason::kBadFrame);
    return;
  }
  tensor::Tensor frame;
  decoder_(job.packet.readings, frame);
  auto ticket = gateway_->submit(std::move(frame), job.stream,
                                 job.deadline_ms > 0.0 ? job.deadline_ms
                                                       : 0.0);
  if (!ticket.admitted) {
    send_shed(conn, job.gid, to_shed_reason(ticket.reason));
    return;
  }
  // Blocking push = backpressure: if the backend is this far behind, the
  // socket read loop (and thus the router) slows down with it.
  completions_.push(Pending{job.gid, conn, std::move(ticket.response)});
}

void ReplicaServer::handle_message(const std::shared_ptr<Conn>& conn,
                                   const Message& msg) {
  switch (msg.type) {
    case MsgType::kHello:
      (void)decode_hello(msg.payload);
      break;
    case MsgType::kJob:
      handle_job(conn, decode_job(msg.payload));
      break;
    case MsgType::kStatsRequest: {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_)
              .count();
      auto snap = gateway_->metrics().snapshot();
      std::vector<std::uint8_t> out;
      append_stats_reply(out, StatsReply{snap.to_json(wall_s, true)});
      send_on(conn, out);
      break;
    }
    case MsgType::kShutdown:
      request_stop();
      break;
    default:
      // Unknown/unexpected types are ignored: version skew on an auxiliary
      // message must not kill a serving replica.
      break;
  }
}

void ReplicaServer::completion_loop() {
  std::vector<std::uint8_t> out;
  while (auto pending = completions_.pop()) {
    serve::Response resp = pending->response.get();
    Result r;
    r.id = pending->gid;
    r.deadline_met = resp.deadline_met ? 1 : 0;
    r.model_epoch = resp.model_epoch;
    r.dims.reserve(resp.output.rank());
    for (std::size_t i = 0; i < resp.output.rank(); ++i) {
      r.dims.push_back(static_cast<std::uint32_t>(resp.output.dim(i)));
    }
    const auto flat = resp.output.flat();
    r.data.assign(flat.begin(), flat.end());
    out.clear();
    append_result(out, r);
    send_on(pending->conn, out);
  }
}

void ReplicaServer::run() {
  started_ = std::chrono::steady_clock::now();
  completion_thread_ = std::thread([this] { completion_loop(); });

  Poller poller;
  std::uint8_t buf[64 * 1024];
  std::vector<int> dead;
  while (stop_.load(std::memory_order_relaxed) == 0) {
    poller.clear();
    poller.want(listener_.fd.get(), true, false);
    poller.want(wake_.r.get(), true, false);
    for (const auto& [fd, conn] : conns_) poller.want(fd, true, false);
    poller.wait(100);
    wake_.drain();

    if (poller.readable(listener_.fd.get())) {
      for (;;) {
        Fd accepted = accept_conn(listener_.fd.get());
        if (!accepted.valid()) break;
        auto conn = std::make_shared<Conn>();
        conn->fd = std::move(accepted);
        conns_.emplace(conn->fd.get(), std::move(conn));
      }
    }

    dead.clear();
    for (auto& [fd, conn] : conns_) {
      if (!conn->alive) {
        dead.push_back(fd);
        continue;
      }
      if (!poller.readable(fd)) continue;
      bool gone = false;
      for (;;) {
        const std::ptrdiff_t n = read_some(fd, buf, sizeof(buf));
        if (n == 0) break;
        if (n < 0) {
          gone = true;
          break;
        }
        conn->reader.feed(buf, static_cast<std::size_t>(n));
      }
      if (conn->reader.broken()) gone = true;
      while (auto msg = conn->reader.next()) {
        try {
          handle_message(conn, *msg);
        } catch (const std::exception&) {
          // Malformed payload: this peer's stream can't be trusted.
          gone = true;
          break;
        }
      }
      if (gone) dead.push_back(fd);
    }
    for (int fd : dead) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // Take ownership before erasing: if the map held the last reference,
      // erase() would destroy the Conn while its write_mutex is still
      // locked, and the guard would unlock a dead mutex.
      std::shared_ptr<Conn> conn = std::move(it->second);
      conns_.erase(it);
      std::lock_guard lock(conn->write_mutex);
      conn->alive = false;
      conn->fd.reset();
    }
  }

  // Graceful drain: stop listening, serve everything already admitted
  // (gateway stop blocks until the replicas drain their shards), then let
  // the completion thread flush every pending result before exiting — an
  // accepted frame is answered even across shutdown.
  listener_.fd.reset();
  gateway_->stop();
  completions_.close();
  completion_thread_.join();
  for (auto& [fd, conn] : conns_) {
    std::lock_guard lock(conn->write_mutex);
    conn->alive = false;
    conn->fd.reset();
  }
  conns_.clear();
}

}  // namespace reads::cluster
