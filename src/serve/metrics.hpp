// Per-stage counters and latency distributions for the serving gateway.
//
// Counter writes are lock-free atomics on the admission and replica hot
// paths; the two latency histograms (queue wait, end to end) are guarded by
// one mutex taken once per completed micro-batch (not per frame). They are
// the only latency store: fixed-size, so nothing grows with uptime, and
// percentiles are read from them at bucket upper edges. snapshot() copies
// everything at once so exports are internally consistent, and to_json()
// emits the BENCH_serve.json building blocks via the util::stats JSON
// export.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace reads::serve {

/// Aggregated view of one replica's work.
struct ReplicaSnapshot {
  std::size_t frames = 0;
  std::size_t batches = 0;
  double busy_ms = 0.0;
  std::size_t max_batch = 0;
  std::size_t faults = 0;  ///< backend faults attributed to this replica
};

/// Consistent copy of all gateway metrics at one instant.
struct MetricsSnapshot {
  std::size_t arrived = 0;
  std::size_t admitted = 0;
  std::size_t shed_predicted_late = 0;
  std::size_t shed_queue_full = 0;
  std::size_t shed_shutdown = 0;
  std::size_t completed = 0;
  std::size_t deadline_misses = 0;
  /// Self-healing activity: backend faults seen, quarantine entries,
  /// restarts after backoff, and frames re-homed to a peer mid-recovery.
  std::size_t backend_faults = 0;
  std::size_t quarantines = 0;
  std::size_t restarts = 0;
  std::size_t redispatched = 0;
  std::vector<ReplicaSnapshot> replicas;
  util::Histogram queue_ms;
  /// End-to-end latency (ms). Named e2e_samples because perfbench reads
  /// that member; ROADMAP item 2's benchmark change renames it e2e_ms.
  util::Histogram e2e_samples;
  std::size_t sheds() const noexcept {
    return shed_predicted_late + shed_queue_full + shed_shutdown;
  }
  double shed_rate() const noexcept {
    return arrived ? static_cast<double>(sheds()) / static_cast<double>(arrived)
                   : 0.0;
  }
  /// Completions that met their deadline, per wall-clock second.
  double goodput_fps(double wall_s) const noexcept {
    return wall_s > 0.0 ? static_cast<double>(completed - deadline_misses) /
                              wall_s
                        : 0.0;
  }

  /// Fold another snapshot into this one for a cluster-wide report: scalar
  /// counters sum, per-replica rows CONCATENATE (each serving process owns
  /// distinct replicas, so a router snapshot with zero replicas plus N
  /// single-replica process snapshots yields N rows), and latency
  /// histograms merge exactly (one layout), so merged percentiles equal
  /// those of one histogram of the union.
  void merge(const MetricsSnapshot& other);

  /// JSON object (schema: DESIGN.md §7) with counters, shed/goodput rates,
  /// e2e p50/p90/p99/p99.97/max (bucket upper edges), per-replica
  /// utilization over `wall_s`, and both histograms. Its size is bounded by
  /// the histogram layout, whatever the uptime.
  std::string to_json(double wall_s) const;

  /// Parse a to_json() export back into a snapshot (derived rates are
  /// recomputed). Throws std::invalid_argument on malformed input.
  /// from_json(to_json(w)) round-trips exactly, histogram end buckets
  /// included.
  static MetricsSnapshot from_json(const std::string& json);
};

class Metrics {
 public:
  /// `replicas` per-replica rows; the router, which runs no backend, has 0.
  explicit Metrics(std::size_t replicas);

  void record_arrival() noexcept { arrived_.fetch_add(1, kRelaxed); }
  void record_admitted() noexcept { admitted_.fetch_add(1, kRelaxed); }
  void record_shed_predicted_late() noexcept {
    shed_predicted_late_.fetch_add(1, kRelaxed);
  }
  void record_shed_queue_full() noexcept {
    shed_queue_full_.fetch_add(1, kRelaxed);
  }
  void record_shed_shutdown() noexcept {
    shed_shutdown_.fetch_add(1, kRelaxed);
  }

  /// Self-healing events (replica worker threads).
  void record_backend_fault(std::size_t replica) noexcept {
    backend_faults_.fetch_add(1, kRelaxed);
    replicas_[replica].faults.fetch_add(1, kRelaxed);
  }
  void record_quarantine(std::size_t replica) noexcept {
    (void)replica;
    quarantines_.fetch_add(1, kRelaxed);
  }
  void record_restart(std::size_t replica) noexcept {
    (void)replica;
    restarts_.fetch_add(1, kRelaxed);
  }
  void record_redispatched() noexcept { redispatched_.fetch_add(1, kRelaxed); }

  /// One completed micro-batch on `replica`: its busy time and row counters,
  /// then record_completions for its frames.
  void record_batch(std::size_t replica, double busy_ms,
                    std::span<const double> frame_queue_ms,
                    std::span<const double> frame_e2e_ms,
                    std::size_t deadline_misses);

  /// Completed frames' per-frame queue/e2e latencies and deadline misses.
  /// Takes the distribution lock once. Spans so the replica hands over its
  /// reused scratch arrays without copying.
  void record_completions(std::span<const double> frame_queue_ms,
                          std::span<const double> frame_e2e_ms,
                          std::size_t deadline_misses);

  MetricsSnapshot snapshot() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  struct PerReplica {
    std::atomic<std::size_t> frames{0};
    std::atomic<std::size_t> batches{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::size_t> max_batch{0};
    std::atomic<std::size_t> faults{0};
  };

  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> shed_predicted_late_{0};
  std::atomic<std::size_t> shed_queue_full_{0};
  std::atomic<std::size_t> shed_shutdown_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> deadline_misses_{0};
  std::atomic<std::size_t> backend_faults_{0};
  std::atomic<std::size_t> quarantines_{0};
  std::atomic<std::size_t> restarts_{0};
  std::atomic<std::size_t> redispatched_{0};
  std::vector<PerReplica> replicas_;

  mutable std::mutex dist_mutex_;
  util::Histogram queue_ms_;
  util::Histogram e2e_ms_;
};

}  // namespace reads::serve
