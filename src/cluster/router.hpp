// Cluster router: the front-end process of the multi-process serving tier.
//
// One poll(2) event loop owns every connection: clients submit ticks (the
// stream's seven hub packets) over kSubmit; the router runs the per-stream
// FrameAssembler gauntlet — the trust boundary stays at the front door, a
// replica never sees an unvalidated byte — re-seals the assembled 260-value
// frame as one jumbo packet, and routes it to the replica process that owns
// the stream on a consistent-hash ring.
//
// Responsibilities, each with a hard invariant:
//
//  * Stream pinning. A stream's jobs go to exactly one replica at a time
//    (per-stream FIFO through the replica's kByStream gateway shard), so
//    per-stream response order equals submit order.
//
//  * SLO budgets. The router judges no deadline itself: each job carries
//    the budget left of its SLO class (3 ms hard-real-time for slo 0,
//    best-effort for slo 1), and the replica's gateway — the one admission
//    point — sheds it kPredictedLate against its real queue depth and
//    service time. The router refuses only on the per-replica outstanding
//    cap (kQueueFull) and the routing outcomes below.
//
//  * Exactly-once. Every accepted job (sent or held) yields exactly one
//    terminal reply to its client. A job lives in exactly one replica's
//    outstanding table; crash redispatch moves it (bit-identical backends
//    make re-execution invisible), and a late duplicate finds no table
//    entry and is dropped.
//
//  * Live resharding. Ring changes (add/remove/crash) never interleave a
//    stream across two replicas: a moved stream with jobs still in flight
//    enters draining — new jobs are held, bounded — and the pin moves only
//    when the old replica has answered everything; held jobs then flush in
//    order to the new owner, admission bypassed (they were already
//    accepted). Membership changes only through add_replica /
//    remove_replica; remove_replica returns only when the node is fully
//    drained.
//
//  * Crash recovery. A replica connection dying removes the node from the
//    ring, redispatches its outstanding jobs to the new owners, and
//    quarantines the endpoint with exponentially backed-off reconnects
//    (the PR 3 replica quarantine policy, lifted to processes); a node
//    that stays dead past the attempt budget is dropped for good.
//
//  * Graceful shutdown (close-then-drain). request_stop() (async-signal-
//    safe, SIGTERM handlers call it) closes the listener, sheds new
//    submits kShutdown, flushes held jobs, and drains every outstanding
//    job before run() returns — no accepted frame is lost.
//
//  * Idempotent resubmission. (stream, req_id) is the tick's idempotency
//    key. Every terminal reply is remembered in a bounded per-stream dedup
//    window; a resubmitted tick (a reconnected client retrying what it
//    never saw acknowledged) is answered verbatim from the window, and a
//    duplicate of a still-in-flight tick re-aims the eventual answer at
//    the new connection instead of re-executing. At-least-once on the
//    wire, exactly-once in effect.
//
//  * Survivable restart. With a journal_path configured, ring membership
//    and the dedup windows ride a write-ahead journal (journal.hpp); the
//    SLO budgets always come from the RouterConfig. A SIGKILLed router
//    restarts on the same endpoint, re-registers the journaled replicas
//    (unreachable ones enter the quarantine/backoff path instead of
//    failing construction), and serves resubmissions from the recovered
//    dedup state — clients just reconnect and resume.
//
//  * Slow-consumer defense. Per-connection write buffers are bounded
//    (overflow drops the peer — resubmission makes the replies
//    recoverable), a connection with pending work but no byte progress
//    past the stall timeout is kicked (replicas into the quarantine path,
//    clients dropped), and a peer that sends a malformed envelope is
//    disconnected on the spot.
//
// The loop itself is single-threaded; the public admin/stats API is
// thread-safe through a command queue + wake pipe (the TSan suite drives
// it concurrently with traffic).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/io.hpp"
#include "cluster/journal.hpp"
#include "cluster/protocol.hpp"
#include "cluster/ring.hpp"
#include "net/assembler.hpp"
#include "net/hub.hpp"
#include "serve/metrics.hpp"

namespace reads::cluster {

/// Per-stream dedup window (entries). It must exceed any client's maximum
/// unacknowledged in-flight window for resubmission to stay exactly-once.
inline constexpr std::size_t kDedupWindow = 256;

struct RouterConfig {
  Endpoint listen;
  /// Endpoints of the initial replica fleet, connected in the constructor.
  std::vector<std::string> replicas;
  /// SLO budgets: hard real-time (slo 0) and best-effort (slo 1).
  double hard_deadline_ms = 3.0;
  double best_effort_deadline_ms = 100.0;
  /// Crash quarantine: reconnect attempts with exponential backoff.
  std::size_t reconnect_attempts = 5;
  double reconnect_backoff_initial_ms = 50.0;
  double reconnect_backoff_max_ms = 1000.0;
  /// Per-stream assembly parameters (monitors/hubs/validation gauntlet).
  net::AssemblerParams assembler;
  /// Write-ahead journal path (empty = no persistence). When the file
  /// already holds a previous incarnation's records, the constructor
  /// recovers: journaled membership replaces `replicas` (unreachable nodes
  /// quarantine instead of throwing) and the dedup windows refill. The
  /// deadline fields above always apply.
  std::string journal_path;
  /// A connection with pending work but no byte-level progress for this
  /// long is stalled: replicas are kicked into the quarantine path,
  /// clients are dropped.
  double stall_timeout_ms = 2000.0;
};

/// Cluster-specific counters beside the serve::Metrics admission/latency
/// view (exported inside the stats JSON as "cluster_counters").
struct RouterCounters {
  std::uint64_t bad_frames = 0;      ///< assembler gauntlet refusals
  std::uint64_t no_replica = 0;      ///< ring empty at routing time
  std::uint64_t held_overflow = 0;   ///< resharding hold bound exceeded
  std::uint64_t held_jobs = 0;       ///< jobs held during a drain
  std::uint64_t resharded_streams = 0;  ///< pins moved by ring changes
  std::uint64_t replica_crashes = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t redispatched_jobs = 0;  ///< moved after a crash
  std::uint64_t duplicate_results = 0;  ///< dropped by the dedup table
  std::uint64_t undeliverable_results = 0;  ///< client gone before reply
  std::uint64_t replica_sheds = 0;  ///< refusals forwarded from a replica
  std::uint64_t dedup_hits = 0;  ///< resubmissions answered from the window
  std::uint64_t inflight_rebinds = 0;  ///< duplicates re-aimed, not re-run
  std::uint64_t malformed_disconnects = 0;  ///< broken envelope streams
  std::uint64_t stalled_peers = 0;       ///< stall-timeout kicks
  std::uint64_t outbuf_overflows = 0;    ///< slow-consumer buffer drops
  std::uint64_t journal_recovered_nodes = 0;
  std::uint64_t journal_recovered_replies = 0;
};

class Router {
 public:
  /// Binds the listener and connects the initial fleet (throws if any
  /// initial replica is unreachable — a cluster that never formed).
  explicit Router(RouterConfig cfg);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const Endpoint& bound() const noexcept { return listener_.bound; }

  /// Event loop; returns after a completed graceful shutdown.
  void run();

  /// Begin close-then-drain shutdown. Thread- and async-signal-safe.
  void request_stop() noexcept {
    stop_.store(1, std::memory_order_relaxed);
    wake_.wake();
  }

  // ---- thread-safe admin API: the one membership path --------------------
  // (the wire admin messages are stats and shutdown only)

  /// Connect and add a replica; blocks until the ring changed. Returns the
  /// node id, or 0 when the connect failed.
  std::uint64_t add_replica(const std::string& endpoint);

  /// Remove a node; blocks until its in-flight jobs drained and every
  /// pinned stream moved (the exactly-once handoff point). False when the
  /// node is unknown.
  bool remove_replica(std::uint64_t node);

  /// Stats snapshot: {"router": <MetricsSnapshot JSON incl. samples, with
  ///  an empty "replicas" array>, "cluster_counters": {...},
  ///  "dedup_entries", "client_outbuf_high_water", "nodes": [{"node",
  ///  "endpoint", "outstanding", "state", "attempts",
  ///  "next_reconnect_in_ms", "outbuf_high_water"}]}. Blocks for the loop's
  ///  reply.
  std::string stats_json();

 private:
  using Clock = std::chrono::steady_clock;

  struct ClientConn {
    std::uint64_t id = 0;
    Fd fd;
    MessageReader reader;
    std::vector<std::uint8_t> outbuf;
    bool alive = true;
    std::size_t outbuf_high_water = 0;
    double last_progress_ms = 0.0;  ///< steady ms of last byte in/out
  };

  /// A routed-but-unanswered job; kept serialized-enough (the Job struct)
  /// to be re-sent verbatim after a replica crash.
  struct InFlight {
    Job job;
    std::uint64_t client = 0;  ///< ClientConn id (0 = internal/lost client)
    std::uint64_t req_id = 0;
    Clock::time_point arrival{};
    double send_ms = 0.0;  ///< steady timestamp of the last dispatch
  };

  enum class NodeState : std::uint8_t { kConnected, kRemoving, kReconnecting };

  struct ReplicaConn {
    std::uint64_t node = 0;
    Endpoint endpoint;
    Fd fd;
    MessageReader reader;
    std::vector<std::uint8_t> outbuf;
    std::map<std::uint64_t, InFlight> outstanding;  ///< by gid
    NodeState state = NodeState::kConnected;
    std::size_t attempts = 0;      ///< reconnects tried this quarantine
    double next_reconnect_ms = 0;  ///< steady ms
    /// remove_replica's deferred acknowledgement, fulfilled when the drain
    /// completes.
    std::optional<std::promise<bool>> remove_promise;
    std::size_t outbuf_high_water = 0;
    double last_progress_ms = 0.0;  ///< steady ms of last byte in/out
  };

  struct StreamState {
    net::FrameAssembler assembler;
    bool pinned = false;
    std::uint64_t pin = 0;
    std::size_t inflight = 0;
    bool draining = false;
    std::deque<InFlight> held;
    explicit StreamState(const net::AssemblerParams& p) : assembler(p) {}
  };

  struct Command {
    enum class Kind : std::uint8_t { kAdd, kRemove, kStats } kind;
    std::string endpoint;
    std::uint64_t node = 0;
    std::promise<std::uint64_t> add_result;
    std::promise<bool> remove_result;
    std::promise<std::string> stats_result;
  };

  static double now_ms() noexcept;

  void enqueue(Command cmd);
  void process_commands();

  std::uint64_t do_add_replica(const std::string& endpoint);
  /// (Re)connect `rc` to its endpoint: fresh reader and outbuf, the hello
  /// queued, progress stamped. The one place a replica connection starts.
  /// Throws when the connect fails.
  void connect_replica(ReplicaConn& rc, double timeout_ms);
  void do_remove_replica(ReplicaConn& rc);
  void finish_remove(std::uint64_t node, bool ok);

  void accept_clients();
  void read_client(ClientConn& c);
  void read_replica(ReplicaConn& rc);
  void handle_client_message(ClientConn& c, const Message& msg);
  void handle_submit(ClientConn& c, Submit&& submit);
  void handle_replica_message(ReplicaConn& rc, const Message& msg);

  /// Route (or hold, or shed) one accepted job. `run_admission` applies the
  /// per-replica outstanding cap; held flushes and crash redispatches pass
  /// false (they were already accepted and must not be re-judged).
  enum class RouteOutcome : std::uint8_t { kSent, kHeld, kShed };
  RouteOutcome route_job(InFlight&& inflight, bool run_admission,
                         ShedReason* shed_reason);
  void send_job(ReplicaConn& rc, InFlight&& inflight);

  void on_job_settled(std::uint64_t stream_id);
  void reevaluate_stream(std::uint64_t stream_id, StreamState& st);
  void flush_held(std::uint64_t stream_id, StreamState& st);
  void redispatch_outstanding(ReplicaConn& rc);
  void replica_gone(std::uint64_t node);
  void try_reconnects();

  void reply_shed(std::uint64_t stream, std::uint64_t client_id,
                  std::uint64_t req_id, ShedReason reason);
  /// Terminal-answer funnel: every result or shed that reaches a client
  /// passes through here, so the dedup window (and the journal) see every
  /// promise the router ever made.
  void finish_reply(std::uint64_t stream, std::uint64_t req_id,
                    std::uint64_t client_id, std::vector<std::uint8_t>&& bytes);
  void send_to_client(std::uint64_t client_id,
                      const std::vector<std::uint8_t>& bytes);
  void flush_outbuf(int fd, std::vector<std::uint8_t>& outbuf, bool& alive,
                    double* last_progress_ms);

  // ---- idempotent resubmission ------------------------------------------
  const std::vector<std::uint8_t>* dedup_find(std::uint64_t stream,
                                              std::uint64_t req_id) const;
  void dedup_store(std::uint64_t stream, std::uint64_t req_id,
                   const std::vector<std::uint8_t>& bytes, bool journal);
  /// Re-aim a still-in-flight duplicate's eventual answer at `client_id`.
  void rebind_inflight(std::uint64_t stream, std::uint64_t gid,
                       std::uint64_t client_id);

  // ---- survivable restart / slow-consumer defense -----------------------
  /// Re-register a journaled replica under its old node id; connect
  /// failures quarantine (backoff path) instead of throwing.
  void recover_replica(std::uint64_t node, const std::string& endpoint);
  void check_stalls();

  void begin_shutdown();
  bool shutdown_drained() const;
  std::string stats_json_now();

  RouterConfig cfg_;
  Listener listener_;
  WakePipe wake_;
  std::atomic<int> stop_{0};
  bool shutting_down_ = false;
  double shutdown_start_ms_ = 0.0;

  std::mutex command_mutex_;
  std::vector<Command> commands_;

  HashRing ring_;
  std::map<std::uint64_t, ClientConn> clients_;          ///< by client id
  std::map<std::uint64_t, std::unique_ptr<ReplicaConn>> replicas_;  ///< by node
  std::unordered_map<std::uint64_t, StreamState> streams_;

  /// Bounded FIFO of remembered terminal replies, per stream.
  struct DedupWindow {
    std::deque<std::uint64_t> order;  ///< req_ids, oldest first
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> replies;
  };
  std::unordered_map<std::uint64_t, DedupWindow> dedup_;
  std::size_t dedup_entries_ = 0;
  /// (stream, req_id) -> gid for accepted-but-unanswered jobs, so a
  /// duplicate submission rebinds instead of re-executing.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
      inflight_keys_;
  RouterJournal journal_;
  /// High-water mark across every client connection ever (survives drops).
  std::size_t client_outbuf_high_water_ = 0;

  std::uint64_t next_client_id_ = 1;
  std::uint64_t next_node_id_ = 1;
  std::uint64_t next_gid_ = 1;

  /// Scratch + deferred work collected while iterating the connection
  /// tables (mutating them mid-iteration would invalidate the iteration).
  std::vector<net::Delivery> deliveries_;
  std::vector<std::uint64_t> gone_replicas_;
  std::vector<std::uint64_t> finished_removes_;

  serve::Metrics metrics_;
  RouterCounters counters_;
  Clock::time_point started_{};
};

}  // namespace reads::cluster
