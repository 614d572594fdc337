// EINTR-safe nonblocking socket and event layer for the cluster tier.
//
// Everything above this file (protocol framing, the router's event loop,
// the replica server) speaks in terms of four primitives: listen_on /
// connect_to producing RAII fds, read_some / write_some that convert the
// POSIX error zoo into three clean outcomes (progress, would-block,
// connection gone), and a Poller that wraps poll(2) with per-fd read/write
// interest. Every syscall here retries EINTR internally — a SIGTERM landing
// mid-read must reach the shutdown logic as a flag check, never as a
// spurious connection error.
//
// Endpoints are spelled "tcp:host:port" or "uds:/path.sock"; binding
// tcp port 0 reports the kernel-assigned port back so test harnesses can
// spawn listeners without port coordination.
//
// The layer also exposes one deliberate seam for the chaos harness: an
// installable IoTap (set_io_tap) consulted by connect_to / accept_conn /
// read_some / write_some. A tap can refuse connects, clamp or stall
// writes, simulate EAGAIN storms, tear a connection mid-envelope, and
// corrupt bytes in transit — all without the protocol or router layers
// knowing chaos exists. Production runs leave the tap null; the check is
// a single relaxed atomic load per call.
#pragma once

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace reads::cluster {

/// RAII file descriptor (EINTR-proof close; never throws).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int f = fd_;
    fd_ = -1;
    return f;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

enum class Transport : std::uint8_t { kTcp, kUds };

struct Endpoint;

/// Chaos seam: an installed tap sees every socket the io layer creates
/// (connect_to / accept_conn register, Fd::reset unregisters) and may
/// perturb each read/write. Implementations must be thread-safe — client
/// threads and event loops call concurrently. Wake pipes and listeners
/// never register, so only real peer connections are ever perturbed.
class IoTap {
 public:
  /// gate_write verdict: tear the connection now (shutdown(2) + "gone").
  static constexpr std::ptrdiff_t kTear = -1;

  virtual ~IoTap() = default;

  /// A peer socket came into being (outbound = we connected, else accepted).
  virtual void on_open(int fd, bool outbound) = 0;
  /// The fd is being closed (also fires for untracked fds; ignore those).
  virtual void on_close(int fd) = 0;

  /// True to refuse this connect attempt (caller throws ECONNREFUSED).
  virtual bool refuse_connect(const Endpoint& ep) = 0;

  /// Called before a write of `len` bytes: return the number of bytes the
  /// wire will accept this attempt (0 simulates EAGAIN; may exceed actual
  /// socket capacity — the real send still governs), or kTear.
  virtual std::ptrdiff_t gate_write(int fd, std::size_t len) = 0;
  /// May corrupt the outgoing bytes; `data` is a private copy of what is
  /// about to hit the wire, never the caller's buffer.
  virtual void mangle_write(int fd, std::uint8_t* data, std::size_t len) = 0;

  /// False to make this read attempt spuriously would-block.
  virtual bool gate_read(int fd) = 0;
  /// May corrupt the bytes a successful read returned.
  virtual void mangle_read(int fd, std::uint8_t* data, std::size_t len) = 0;
};

/// Install (or clear, with nullptr) the process-wide tap. The caller keeps
/// ownership and must clear the tap before destroying it.
void set_io_tap(IoTap* tap) noexcept;
IoTap* io_tap() noexcept;

/// Parsed address: "tcp:host:port" (IPv4 dotted quad or "localhost") or
/// "uds:/absolute/path.sock".
struct Endpoint {
  Transport transport = Transport::kTcp;
  std::string host = "127.0.0.1";  ///< tcp only
  std::uint16_t port = 0;          ///< tcp only (0 = kernel-assigned)
  std::string path;                ///< uds only

  /// Throws std::invalid_argument on malformed specs (including UDS paths
  /// longer than sun_path allows).
  static Endpoint parse(const std::string& spec);
  std::string str() const;
};

struct Listener {
  Fd fd;
  Endpoint bound;  ///< actual address (tcp port 0 resolved via getsockname)
};

/// Bind + listen, nonblocking + CLOEXEC (+ SO_REUSEADDR for tcp; stale UDS
/// socket files are unlinked first). Throws std::system_error.
Listener listen_on(const Endpoint& ep);

/// Nonblocking connect, waiting up to `timeout_ms` for establishment; the
/// returned fd is nonblocking (+ TCP_NODELAY for tcp). Throws
/// std::system_error on refusal/timeout.
Fd connect_to(const Endpoint& ep, double timeout_ms);

/// Accept one pending connection (nonblocking + CLOEXEC + TCP_NODELAY);
/// invalid Fd when none is pending.
Fd accept_conn(int listen_fd);

/// One nonblocking read: >0 bytes read, 0 would-block, -1 peer gone
/// (EOF/ECONNRESET/EPIPE). EINTR retried internally.
std::ptrdiff_t read_some(int fd, std::uint8_t* buf, std::size_t len);

/// One nonblocking write: >=0 bytes written (0 = would-block), -1
/// connection gone. EINTR retried internally.
std::ptrdiff_t write_some(int fd, const std::uint8_t* buf, std::size_t len);

/// Write the whole buffer, parking in poll(2) while the socket is full.
/// `timeout_ms` < 0 waits indefinitely. False when the connection dies or
/// the timeout expires mid-message (the stream is unusable either way).
bool write_all(int fd, const std::uint8_t* data, std::size_t len,
               double timeout_ms = -1.0);

/// Nonblocking CLOEXEC pipe; the read end joins a Poller so another thread
/// (or a signal handler) can wake an event loop by writing one byte.
struct WakePipe {
  Fd r;
  Fd w;
  /// Async-signal-safe nudge (one byte; a full pipe is already a wakeup).
  void wake() const noexcept;
  /// Drain pending wake bytes (event-loop side).
  void drain() const noexcept;
};
WakePipe make_wake_pipe();

/// poll(2) wrapper: declare per-fd interest, wait once, query readiness.
/// Readiness queries are linear scans — connection tables here are tens of
/// entries, not thousands.
class Poller {
 public:
  void clear() { fds_.clear(); }
  void want(int fd, bool read, bool write);
  /// Number of ready fds (0 on timeout or EINTR).
  int wait(int timeout_ms);
  bool readable(int fd) const;  ///< POLLIN | POLLHUP | POLLERR
  bool writable(int fd) const;  ///< POLLOUT | POLLHUP | POLLERR

 private:
  short revents(int fd) const;
  std::vector<pollfd> fds_;
};

}  // namespace reads::cluster
