#include "cluster/io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace reads::cluster {

namespace {

std::atomic<IoTap*> g_io_tap{nullptr};

}  // namespace

void set_io_tap(IoTap* tap) noexcept {
  g_io_tap.store(tap, std::memory_order_release);
}

IoTap* io_tap() noexcept { return g_io_tap.load(std::memory_order_acquire); }

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// sockaddr for `ep`; returns the usable length.
socklen_t fill_sockaddr(const Endpoint& ep, sockaddr_storage& ss) {
  std::memset(&ss, 0, sizeof(ss));
  if (ep.transport == Transport::kTcp) {
    auto* in = reinterpret_cast<sockaddr_in*>(&ss);
    in->sin_family = AF_INET;
    in->sin_port = htons(ep.port);
    const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
    if (::inet_pton(AF_INET, host.c_str(), &in->sin_addr) != 1) {
      throw std::invalid_argument("Endpoint: bad IPv4 host '" + ep.host + "'");
    }
    return sizeof(sockaddr_in);
  }
  auto* un = reinterpret_cast<sockaddr_un*>(&ss);
  un->sun_family = AF_UNIX;
  if (ep.path.size() + 1 > sizeof(un->sun_path)) {
    throw std::invalid_argument("Endpoint: UDS path too long: " + ep.path);
  }
  std::memcpy(un->sun_path, ep.path.c_str(), ep.path.size() + 1);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                ep.path.size() + 1);
}

Fd make_socket(Transport t) {
  const int domain = t == Transport::kTcp ? AF_INET : AF_UNIX;
  Fd fd(::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  if (t == Transport::kTcp) set_nodelay(fd.get());
  return fd;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// poll one fd for `events`; true when ready before the deadline.
/// `deadline_ms` < 0 waits forever.
bool poll_one(int fd, short events, double deadline_ms) {
  for (;;) {
    int wait = -1;
    if (deadline_ms >= 0.0) {
      const double left = deadline_ms - now_ms();
      if (left <= 0.0) return false;
      wait = static_cast<int>(left) + 1;
    }
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) continue;  // re-check deadline
    return true;
  }
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    if (IoTap* tap = io_tap()) tap->on_close(fd_);
    // POSIX leaves the fd state unspecified on EINTR from close(); Linux
    // always releases it, so retrying would race a concurrent open. Close
    // once and move on.
    ::close(fd_);
    fd_ = -1;
  }
}

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("uds:", 0) == 0) {
    ep.transport = Transport::kUds;
    ep.path = spec.substr(4);
    if (ep.path.empty()) {
      throw std::invalid_argument("Endpoint: empty UDS path in '" + spec + "'");
    }
    sockaddr_un probe;
    if (ep.path.size() + 1 > sizeof(probe.sun_path)) {
      throw std::invalid_argument("Endpoint: UDS path too long: " + ep.path);
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.transport = Transport::kTcp;
    const auto colon = spec.rfind(':');
    if (colon == 3) {
      throw std::invalid_argument("Endpoint: missing port in '" + spec + "'");
    }
    ep.host = spec.substr(4, colon - 4);
    const std::string port = spec.substr(colon + 1);
    if (ep.host.empty() || port.empty() ||
        port.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("Endpoint: bad tcp spec '" + spec + "'");
    }
    const unsigned long v = std::stoul(port);
    if (v > 65535) {
      throw std::invalid_argument("Endpoint: port out of range in '" + spec +
                                  "'");
    }
    ep.port = static_cast<std::uint16_t>(v);
    return ep;
  }
  throw std::invalid_argument("Endpoint: expected tcp:host:port or uds:path, "
                              "got '" +
                              spec + "'");
}

std::string Endpoint::str() const {
  if (transport == Transport::kUds) return "uds:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Listener listen_on(const Endpoint& ep) {
  Fd fd = make_socket(ep.transport);
  if (ep.transport == Transport::kTcp) {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    ::unlink(ep.path.c_str());  // stale socket file from a dead process
  }
  sockaddr_storage ss;
  const socklen_t len = fill_sockaddr(ep, ss);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&ss), len) != 0) {
    throw_errno("bind " + ep.str());
  }
  if (::listen(fd.get(), 64) != 0) throw_errno("listen " + ep.str());

  Listener out{std::move(fd), ep};
  if (ep.transport == Transport::kTcp && ep.port == 0) {
    sockaddr_in actual{};
    socklen_t alen = sizeof(actual);
    if (::getsockname(out.fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &alen) != 0) {
      throw_errno("getsockname");
    }
    out.bound.port = ntohs(actual.sin_port);
  }
  return out;
}

Fd connect_to(const Endpoint& ep, double timeout_ms) {
  if (IoTap* tap = io_tap(); tap != nullptr && tap->refuse_connect(ep)) {
    errno = ECONNREFUSED;
    throw_errno("connect " + ep.str());
  }
  Fd fd = make_socket(ep.transport);
  sockaddr_storage ss;
  const socklen_t len = fill_sockaddr(ep, ss);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&ss), len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) throw_errno("connect " + ep.str());
  if (rc != 0) {
    const double deadline = now_ms() + timeout_ms;
    if (!poll_one(fd.get(), POLLOUT, deadline)) {
      errno = ETIMEDOUT;
      throw_errno("connect " + ep.str());
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0) {
      throw_errno("getsockopt " + ep.str());
    }
    if (soerr != 0) {
      errno = soerr;
      throw_errno("connect " + ep.str());
    }
  }
  if (IoTap* tap = io_tap()) tap->on_open(fd.get(), true);
  return fd;
}

Fd accept_conn(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);  // no-op (ENOTSUP) on UDS
      if (IoTap* tap = io_tap()) tap->on_open(fd, false);
      return Fd(fd);
    }
    if (errno == EINTR) continue;
    return Fd();  // EAGAIN / transient accept error: nothing pending
  }
}

std::ptrdiff_t read_some(int fd, std::uint8_t* buf, std::size_t len) {
  IoTap* const tap = io_tap();
  if (tap != nullptr && !tap->gate_read(fd)) return 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n > 0) {
      if (tap != nullptr) {
        tap->mangle_read(fd, buf, static_cast<std::size_t>(n));
      }
      return n;
    }
    if (n == 0) return -1;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;  // ECONNRESET and friends: peer gone
  }
}

namespace {

std::ptrdiff_t send_some(int fd, const std::uint8_t* buf, std::size_t len) {
  for (;;) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

}  // namespace

std::ptrdiff_t write_some(int fd, const std::uint8_t* buf, std::size_t len) {
  IoTap* const tap = io_tap();
  if (tap == nullptr || len == 0) return send_some(fd, buf, len);
  const std::ptrdiff_t allow = tap->gate_write(fd, len);
  if (allow == IoTap::kTear) {
    // Tear both directions so the peer observes the reset too — a chaos
    // "connection reset" must look like the real thing from both ends.
    ::shutdown(fd, SHUT_RDWR);
    return -1;
  }
  if (allow == 0) return 0;  // simulated EAGAIN
  const std::size_t clamped =
      std::min(len, static_cast<std::size_t>(allow));
  // Mangle a private copy: the caller's buffer is immutable, and on a
  // partial send the unsent suffix is re-offered (and re-mangled) later.
  thread_local std::vector<std::uint8_t> scratch;
  scratch.assign(buf, buf + clamped);
  tap->mangle_write(fd, scratch.data(), clamped);
  return send_some(fd, scratch.data(), clamped);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len,
               double timeout_ms) {
  const double deadline = timeout_ms < 0.0 ? -1.0 : now_ms() + timeout_ms;
  std::size_t off = 0;
  while (off < len) {
    const std::ptrdiff_t n = write_some(fd, data + off, len - off);
    if (n < 0) return false;
    if (n == 0) {
      if (!poll_one(fd, POLLOUT, deadline)) return false;
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void WakePipe::wake() const noexcept {
  const std::uint8_t b = 1;
  // A full pipe already guarantees the loop will wake; EINTR on a 1-byte
  // pipe write cannot leave a partial write behind.
  [[maybe_unused]] const ssize_t n = ::write(w.get(), &b, 1);
}

void WakePipe::drain() const noexcept {
  std::uint8_t buf[64];
  while (read_some(r.get(), buf, sizeof(buf)) > 0) {
  }
}

WakePipe make_wake_pipe() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) throw_errno("pipe2");
  return WakePipe{Fd(fds[0]), Fd(fds[1])};
}

void Poller::want(int fd, bool read, bool write) {
  short events = 0;
  if (read) events |= POLLIN;
  if (write) events |= POLLOUT;
  fds_.push_back(pollfd{fd, events, 0});
}

int Poller::wait(int timeout_ms) {
  if (fds_.empty()) return 0;
  const int rc = ::poll(fds_.data(), fds_.size(), timeout_ms);
  if (rc < 0) {
    if (errno != EINTR) throw_errno("poll");
    return 0;
  }
  return rc;
}

short Poller::revents(int fd) const {
  for (const auto& p : fds_) {
    if (p.fd == fd) return p.revents;
  }
  return 0;
}

bool Poller::readable(int fd) const {
  return (revents(fd) & (POLLIN | POLLHUP | POLLERR)) != 0;
}

bool Poller::writable(int fd) const {
  return (revents(fd) & (POLLOUT | POLLHUP | POLLERR)) != 0;
}

}  // namespace reads::cluster
