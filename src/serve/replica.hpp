// Replica: one worker thread draining one shard queue into a Backend.
//
// Micro-batching is opportunistic and deadline-aware: after the blocking
// pop of the first request the replica greedily try_pop()s more — a frame
// that is already queued always completes no later by joining the current
// batch than by waiting for the next one — but only while the grown batch's
// predicted completion still meets the deadline of every frame already in
// it. Under light load batches stay at 1 (lowest latency); when the queue
// is deep and deadlines are loose, batches grow toward max_batch and the
// backend's batch entry point amortizes dispatch.
//
// The replica publishes two values the gateway's admission control reads
// lock-free: an EWMA per-frame service-time estimate and the predicted
// completion time of the in-flight batch (busy_residual_ms).
//
// Self-healing: a backend fault (an exception from infer_batch_into — in a
// real deployment a crashed worker process) never loses an admitted frame
// and never kills the worker thread. Faulted requests are redispatched to
// healthy peers through the gateway's hook, or retried locally when no peer
// will take them. After `quarantine_after` consecutive faults the replica
// quarantines itself: it stops accepting work (the gateway routes around
// it), hands its backlog to peers, sleeps an exponentially backed-off
// restart delay, and returns to service with a clean fault streak.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/backend.hpp"
#include "serve/estimator.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace reads::serve {

enum class ReplicaHealth : std::uint8_t {
  kHealthy,
  kQuarantined,  ///< in backoff after a fault streak; routed around
};

class Replica {
 public:
  struct Options {
    std::size_t id = 0;
    std::size_t max_batch = 1;
    /// Seed for the EWMA until real service times are observed.
    double initial_service_est_ms = 2.0;
    /// Consecutive backend faults before the replica quarantines itself.
    std::size_t quarantine_after = 3;
    /// Restart backoff: initial delay, doubling per restart up to the cap.
    /// The cap also bounds how long stop() can wait on a quarantined
    /// replica, so keep it well under a second.
    double backoff_initial_ms = 1.0;
    double backoff_max_ms = 64.0;
  };

  /// Gateway hook: offer a faulted request to another replica. Returns true
  /// if the request was re-enqueued elsewhere (it is moved-from); on false
  /// the request is untouched and stays with the caller for a local retry.
  using Redispatch = std::function<bool(Request&)>;

  Replica(Options options, std::unique_ptr<Backend> backend, Metrics& metrics);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Spawn the worker thread; `shard` must outlive join().
  void start(BoundedQueue<Request>& shard);
  /// Wait for the worker to drain its (closed) shard and exit.
  void join();

  /// Install the gateway's peer-redispatch hook. Must be called before
  /// start(); the worker thread reads it without synchronization.
  void set_redispatch(Redispatch redispatch) {
    redispatch_ = std::move(redispatch);
  }

  /// Shadow-mirror hook: invoked on the worker thread for every served
  /// request whose mirror flag is set, with the request's id/stream, the
  /// input frame, and the primary output. Must be called before start();
  /// must be cheap (the gateway copies into a bounded queue and returns).
  using ShadowTap = std::function<void(std::uint64_t id, std::uint64_t stream,
                                       const Tensor& frame,
                                       const Tensor& output)>;
  void set_shadow_tap(ShadowTap tap) { shadow_tap_ = std::move(tap); }

  /// Stage a replacement backend for zero-downtime hot-swap. The worker
  /// applies it at the next batch boundary — never mid-batch, so every
  /// response is entirely one model generation and is stamped with the
  /// epoch that actually served it. Any frame submitted after swap_model()
  /// returns is guaranteed to be served by the new backend. A second stage
  /// before the first applies simply replaces it (last writer wins).
  /// Thread-safe; callable while the worker is running.
  void swap_model(std::unique_ptr<Backend> backend, std::uint64_t epoch);

  /// Model generation currently serving (1 = the constructor backend).
  std::uint64_t model_epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  std::size_t id() const noexcept { return opts_.id; }
  Backend& backend() noexcept { return *backend_; }

  ReplicaHealth health() const noexcept {
    return health_.load(std::memory_order_relaxed);
  }
  std::uint64_t backend_faults() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }

  /// EWMA per-frame service time and its mean deviation (ms), updated after
  /// every batch (see serve/estimator.hpp).
  const ServiceEstimator& estimator() const noexcept { return estimator_; }

  /// True from first frame of a batch until its responses are delivered.
  bool busy() const noexcept {
    return busy_.load(std::memory_order_relaxed);
  }

  /// Predicted ms until the in-flight batch finishes; 0 when idle (or when
  /// the batch has overrun its prediction — check busy() to distinguish).
  double busy_residual_ms() const noexcept;

 private:
  void run(BoundedQueue<Request>& shard);
  /// Worker-thread batch boundary: install a staged backend swap, if any.
  void maybe_apply_swap();
  /// Serve one batch; false when the backend faulted (batch is intact —
  /// frames restored — and no promise was touched).
  bool serve_batch(std::vector<Request>& batch);
  /// Fault recovery: redispatch the batch to peers (refusals go to carry_),
  /// and quarantine + backoff + restart once the streak is long enough.
  void handle_fault(std::vector<Request>& batch, BoundedQueue<Request>& shard);

  Options opts_;
  std::unique_ptr<Backend> backend_;
  Metrics& metrics_;
  Redispatch redispatch_;
  ShadowTap shadow_tap_;
  /// Staged hot-swap, guarded by swap_mutex_; the flag lets the worker
  /// skip the lock on the (overwhelmingly common) no-swap batch boundary.
  std::mutex swap_mutex_;
  std::unique_ptr<Backend> pending_backend_;
  std::uint64_t pending_epoch_ = 0;
  std::atomic<bool> swap_staged_{false};
  std::atomic<std::uint64_t> epoch_{1};
  std::thread thread_;
  ServiceEstimator estimator_;
  std::atomic<bool> busy_{false};
  /// steady_clock nanoseconds when the current batch should complete;
  /// 0 = idle.
  std::atomic<std::int64_t> busy_until_ns_{0};
  std::atomic<ReplicaHealth> health_{ReplicaHealth::kHealthy};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> restarts_{0};
  /// Worker-thread private: current fault streak and requests awaiting a
  /// local retry because no peer would take them. Served before any new
  /// work, so an admitted frame can never be stranded behind the queue.
  std::size_t consecutive_faults_ = 0;
  std::vector<Request> carry_;
  /// Worker-thread batch scratch, sized once in the constructor so the
  /// steady-state serve loop performs zero heap allocations: the requests'
  /// input tensors during inference, a persistent pool of reused output
  /// buffers, and the per-frame latency samples handed to Metrics as spans.
  std::vector<Tensor> frames_;
  std::vector<Tensor> outputs_;
  std::vector<double> queue_ms_;
  std::vector<double> e2e_ms_;
};

}  // namespace reads::serve
