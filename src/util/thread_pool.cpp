#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace reads::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const auto hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 0;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      // A task enqueued after shutdown would never run and its
      // parallel_for would block forever; fail loudly instead.
      throw std::logic_error("ThreadPool: enqueue after shutdown");
    }
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t parties = workers_.size() + 1;  // workers + caller
  if (parties == 1 || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, parties);
  const std::size_t chunk = (n + chunks - 1) / chunks;

  // The counter, mutex and condition variable live on the caller's stack.
  // Each worker decrements and notifies while holding done_mutex, so the
  // caller cannot observe 0 — and return, ending their lifetime — until
  // the last worker has released the mutex and touches none of them again.
  std::size_t remaining = chunks - 1;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    enqueue([&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      std::lock_guard lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  // Caller handles the first chunk.
  for (std::size_t i = begin; i < std::min(end, begin + chunk); ++i) fn(i);

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
bool g_global_created = false;

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(g_global_mutex);
  auto& slot = global_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>();
    g_global_created = true;
  }
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard lock(g_global_mutex);
  auto& slot = global_slot();
  if (g_global_created) {
    throw std::logic_error(
        "ThreadPool: set_global_threads after the global pool was created");
  }
  slot = std::make_unique<ThreadPool>(threads);
  g_global_created = true;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace reads::util
