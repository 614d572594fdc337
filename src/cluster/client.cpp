#include "cluster/client.hpp"

#include <chrono>

namespace reads::cluster {

namespace {

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ClusterClient::ClusterClient(const std::string& endpoint, Role role,
                             double connect_timeout_ms)
    : fd_(connect_to(Endpoint::parse(endpoint), connect_timeout_ms)) {
  std::vector<std::uint8_t> out;
  append_hello(out, Hello{role, kProtocolVersion});
  send(out);
}

bool ClusterClient::send(const std::vector<std::uint8_t>& bytes) {
  if (!fd_.valid()) return false;
  if (!write_all(fd_.get(), bytes.data(), bytes.size(), 5000.0)) {
    fd_.reset();
    return false;
  }
  return true;
}

bool ClusterClient::submit(const Submit& s) {
  std::vector<std::uint8_t> out;
  append_submit(out, s);
  return send(out);
}

std::optional<Message> ClusterClient::poll(double timeout_ms) {
  if (!pending_.empty()) {
    Message msg = std::move(pending_.front());
    pending_.pop_front();
    return msg;
  }
  return next_from_wire(timeout_ms);
}

std::optional<Message> ClusterClient::next_from_wire(double timeout_ms) {
  const double deadline = steady_ms() + timeout_ms;
  Poller poller;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    if (auto msg = reader_.next()) return msg;
    if (!fd_.valid() || reader_.broken()) return std::nullopt;
    const double remaining = deadline - steady_ms();
    if (remaining <= 0.0) return std::nullopt;
    poller.clear();
    poller.want(fd_.get(), true, false);
    poller.wait(static_cast<int>(remaining) + 1);
    for (;;) {
      const std::ptrdiff_t n = read_some(fd_.get(), buf, sizeof(buf));
      if (n == 0) break;
      if (n < 0) {
        fd_.reset();
        break;
      }
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
  }
}

std::optional<Message> ClusterClient::wait_for(MsgType type,
                                               double timeout_ms) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->type == type) {
      Message msg = std::move(*it);
      pending_.erase(it);
      return msg;
    }
  }
  const double deadline = steady_ms() + timeout_ms;
  for (;;) {
    const double remaining = deadline - steady_ms();
    if (remaining <= 0.0) return std::nullopt;
    auto msg = next_from_wire(remaining);
    if (!msg) return std::nullopt;
    if (msg->type == type) return msg;
    // A result racing an admin reply on a shared connection: set it aside
    // for the next poll() instead of losing it.
    pending_.push_back(std::move(*msg));
  }
}

std::string ClusterClient::stats(double timeout_ms) {
  std::vector<std::uint8_t> out;
  append_stats_request(out);
  if (!send(out)) return {};
  auto msg = wait_for(MsgType::kStatsReply, timeout_ms);
  if (!msg) return {};
  return decode_stats_reply(msg->payload).json;
}

void ClusterClient::shutdown_router() {
  std::vector<std::uint8_t> out;
  append_shutdown(out);
  send(out);
}

}  // namespace reads::cluster
