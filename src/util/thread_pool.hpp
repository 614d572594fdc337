// A small fixed-size thread pool with a blocking parallel_for.
//
// Training and the accuracy sweeps are embarrassingly parallel over samples;
// on multi-core hosts the pool gives near-linear speedup, and on single-core
// hosts parallel_for degrades to a plain loop with no thread overhead.
//
// Shutdown-safety contract (audited; stress-tested in test_util, run under
// TSan by tools/check.sh):
//  - The destructor closes the queue, wakes every worker, drains all
//    already-enqueued tasks, and joins. It must only race with nothing:
//    no thread may call parallel_for concurrently with destruction (the
//    blocking parallel_for makes that impossible for well-formed callers —
//    every task a caller enqueued has completed before its call returns).
//  - enqueue() after stop would strand a task (its parallel_for would wait
//    forever), so it throws std::logic_error instead of silently accepting.
//  - parallel_for is safe to call concurrently from many threads, including
//    from inside tasks running on *another* pool; calling it from inside
//    one of this pool's own tasks risks deadlock (workers waiting on
//    workers) and is not supported.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace reads::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() - 1 (the calling thread
  /// participates in parallel_for, so one fewer worker is spawned).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks.
  /// Blocks until every index has been processed. fn must be safe to call
  /// concurrently for distinct indices. Exceptions from fn terminate (the
  /// workloads here are noexcept in practice; keep it simple and honest).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized from the hardware. Lazily constructed.
  static ThreadPool& global();

  /// Fix the global pool's size before anything has used it (benches pin
  /// worker counts for reproducible runs). Throws std::logic_error if the
  /// global pool already exists.
  static void set_global_threads(std::size_t threads);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over the global pool (an empty pool runs the loop
/// inline on the calling thread).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace reads::util
