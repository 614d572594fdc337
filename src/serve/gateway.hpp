// Gateway: multiplexes many client frame streams onto a pool of inference
// replicas.
//
// Dispatch is sharded: every replica owns a bounded queue, and submit()
// routes each frame to one shard — kByStream pins a stream to a replica
// (per-stream FIFO response order), kLeastLoaded picks the shard with the
// least predicted backlog (work-conserving, best goodput under skew).
//
// Admission control is deadline-aware and happens on arrival: using the
// shard's queue depth, the replica's EWMA service time and the in-flight
// batch's predicted residual, the gateway estimates when a new frame would
// complete; if that already exceeds the frame's deadline (times a safety
// margin) the frame is shed immediately — the client hears "no" in
// microseconds instead of receiving a useless answer after the deadline.
// A full shard likewise sheds at admission (kQueueFull). Once admitted, a
// frame is never dropped: exactly one Response is delivered, even through
// shutdown (stop() closes the shards and replicas drain them).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/backend.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/replica.hpp"
#include "serve/request.hpp"

namespace reads::serve {

enum class ShardPolicy : std::uint8_t {
  kLeastLoaded,  ///< join the shard with the least predicted backlog
  kByStream,     ///< stream id -> fixed replica (per-stream ordering)
};

struct GatewayConfig {
  /// Per-shard queue capacity; overload beyond this sheds at admission.
  std::size_t queue_capacity = 64;
  /// Upper bound on opportunistic micro-batch size (1 = no batching).
  std::size_t max_batch = 1;
  /// Default per-frame latency budget; <= 0 means no deadline (and thus no
  /// deadline-based admission control, only capacity).
  double deadline_ms = 3.0;
  /// Master switch for predicted-late shedding.
  bool admission_control = true;
  /// EWMA seed until each replica has observed real service times.
  double initial_service_est_ms = 2.0;
  ShardPolicy sharding = ShardPolicy::kLeastLoaded;
  /// Self-healing knobs, forwarded to each replica (see Replica::Options).
  std::size_t quarantine_after = 3;
  double backoff_initial_ms = 1.0;
  double backoff_max_ms = 64.0;
};

/// Produces one fresh Backend instance per call; used by fleet swaps (one
/// backend per replica — replicas never share mutable state) and by shadow
/// sessions (one more for the shadow worker).
using BackendFactory = std::function<std::unique_ptr<Backend>()>;

/// Verdict on one mirrored frame: true = the candidate's output is
/// acceptable. Runs on the shadow worker thread with the primary's output
/// for the same frame; `stream` lets a caller with ground truth (the bench
/// tags streams with frame indices) judge against labels instead of the
/// incumbent.
using ShadowJudge = std::function<bool(
    std::uint64_t stream, const Tensor& frame, const Tensor& primary,
    const Tensor& shadow)>;

struct ShadowConfig {
  /// Fraction of admitted frames mirrored to the candidate (deterministic
  /// per request id, so a replayed stream mirrors identically).
  double fraction = 0.25;
  /// Judged mirrors per evaluation window.
  std::size_t window = 64;
  /// A window with more rejects than this is a regression: the candidate
  /// is rolled back (discarded; the fleet never served it).
  std::size_t max_rejects = 3;
  /// Consecutive clean windows before the candidate is promoted fleet-wide.
  std::size_t promote_after = 2;
  /// Shadow queue capacity; mirrors beyond it are dropped (counted), never
  /// letting the candidate's speed stall the primary path.
  std::size_t queue_capacity = 256;
};

enum class ShadowOutcome : std::uint8_t {
  kNone,        ///< no shadow session has run
  kActive,      ///< candidate still under evaluation
  kPromoted,    ///< clean windows reached; fleet swapped to the candidate
  /// Candidate discarded: a window regressed, or its factory threw at
  /// promotion time. Either way the fleet only ever served the incumbent.
  kRolledBack,
  kEnded,       ///< end_shadow() before any verdict
};

std::string_view to_string(ShadowOutcome outcome) noexcept;

struct ShadowStatus {
  bool active = false;
  ShadowOutcome outcome = ShadowOutcome::kNone;
  std::uint64_t candidate_epoch = 0;
  std::uint64_t mirrored = 0;  ///< mirror copies enqueued to the shadow
  std::uint64_t dropped = 0;   ///< mirror copies shed (shadow queue full)
  std::uint64_t judged = 0;
  std::uint64_t rejects = 0;
  std::uint64_t windows = 0;        ///< completed evaluation windows
  std::uint64_t clean_windows = 0;  ///< consecutive clean windows so far
};

class Gateway {
 public:
  /// One replica per backend; replica i serves shard i.
  Gateway(std::vector<std::unique_ptr<Backend>> backends, GatewayConfig cfg);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Admit-or-shed `frame` from `stream` with the config's default budget.
  /// Never blocks.
  Ticket submit(Tensor frame, std::uint64_t stream = 0);
  /// Same with an explicit per-frame budget (<= 0: no deadline).
  Ticket submit(Tensor frame, std::uint64_t stream, double deadline_ms);

  /// Zero-allocation admission: on kNone the frame is admitted, `frame` is
  /// moved out, and exactly one response will be published into `slot`
  /// (which must stay alive and un-reset until then); the replica also
  /// returns the frame buffer via slot.frame_return() for reuse. On any
  /// other reason the frame was not enqueued and stays with the caller.
  /// Unlike submit(), no std::promise shared state is created — the steady
  /// state performs zero heap allocations end to end (see bench_serve's
  /// allocations-per-frame gate). Never blocks.
  RejectReason submit_into(Tensor& frame, ResponseSlot& slot,
                           std::uint64_t stream, double deadline_ms);

  /// Close all shards, serve everything already admitted, join replicas.
  /// Idempotent; called by the destructor.
  void stop();

  std::size_t replica_count() const noexcept { return replicas_.size(); }
  Replica& replica(std::size_t i) { return *replicas_.at(i); }
  Metrics& metrics() noexcept { return metrics_; }
  const GatewayConfig& config() const noexcept { return cfg_; }

  /// Hot-swap every replica to a fresh backend from `factory`, tagged
  /// `epoch`. Zero downtime: each replica lands the swap at its next batch
  /// boundary; frames submitted after swap_all() returns are served by the
  /// new generation (and stamped with its epoch), frames already in flight
  /// finish on whichever generation serves them — the stamp tells which.
  void swap_all(const BackendFactory& factory, std::uint64_t epoch);

  /// Fleet model generation (1 = the backends the gateway was built with).
  std::uint64_t model_epoch() const noexcept {
    return model_epoch_.load(std::memory_order_relaxed);
  }

  /// Start shadow evaluation of a candidate model: a deterministic
  /// `cfg.fraction` of admitted frames is mirrored — after the primary
  /// serves them — to a candidate backend on a dedicated shadow thread,
  /// where `judge` scores candidate outputs. After `cfg.promote_after`
  /// consecutive clean windows the candidate is promoted fleet-wide via
  /// swap_all(); a window with more than `cfg.max_rejects` rejects rolls it
  /// back (discards it — live traffic never saw it, so "rollback" restores
  /// nothing and the fleet's outputs stay bit-identical to before).
  /// Default judge: max |primary - shadow| <= 0.25 elementwise.
  /// Returns false if a session is already active or the gateway stopped.
  bool begin_shadow(BackendFactory factory, ShadowConfig cfg,
                    ShadowJudge judge = {});

  /// Finish the shadow session (if any): stop mirroring, let the shadow
  /// worker judge every frame mirrored before the call — without promoting
  /// or rolling back on those late verdicts — join it, and return the final
  /// status. Idempotent.
  ShadowStatus end_shadow();

  /// Snapshot of the running (or most recently finished) shadow session.
  ShadowStatus shadow_status() const;

  /// Predicted ms from now until a frame submitted to `shard` would
  /// complete (queue backlog + in-flight residual + own service).
  double predicted_completion_ms(std::size_t shard) const;

 private:
  struct ShadowSession;

  std::size_t pick_shard(std::uint64_t stream) const;
  /// The one admission body behind submit() and submit_into(): shed, or
  /// enqueue `frame` on a shard. `attach(Request&)` installs the delivery
  /// channel (promise or slot); it runs only once the frame has passed the
  /// predicted-late check. On any refusal `frame` stays with the caller.
  template <class AttachChannel>
  RejectReason admit(Tensor& frame, std::uint64_t stream, double deadline_ms,
                     AttachChannel&& attach);
  /// Replica fault hook: place `req` on a healthy shard other than `from`.
  /// Never blocks; false leaves the request with the caller.
  bool redispatch(std::size_t from, Request& req);
  /// Replica shadow tap: copy a served (frame, output) pair into the
  /// session's queue. Never blocks; drops (counted) when the queue is full.
  void on_mirror(std::uint64_t id, std::uint64_t stream, const Tensor& frame,
                 const Tensor& primary);
  /// Shadow worker: judge mirrored frames, promote or roll back.
  void shadow_run(std::shared_ptr<ShadowSession> session);
  std::shared_ptr<ShadowSession> shadow_session() const;

  GatewayConfig cfg_;
  Metrics metrics_;
  std::vector<std::unique_ptr<BoundedQueue<Request>>> shards_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> model_epoch_{1};
  mutable std::mutex shadow_mutex_;
  std::shared_ptr<ShadowSession> shadow_;
  ShadowStatus last_shadow_status_;
};

}  // namespace reads::serve
