#include "serve/replica.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace reads::serve {

namespace {

std::int64_t to_ns(Clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Replica::Replica(Options options, std::unique_ptr<Backend> backend,
                 Metrics& metrics)
    : opts_(options),
      backend_(std::move(backend)),
      metrics_(metrics),
      estimator_(options.initial_service_est_ms) {
  // Batch scratch is sized once here so serve_batch never allocates.
  // outputs_ holds max_batch persistent output tensors: infer_batch_into
  // reuses their storage, and slot deliveries swap client buffers back in,
  // so the pool stays warm forever.
  const std::size_t mb = std::max<std::size_t>(1, opts_.max_batch);
  outputs_.resize(mb);
  frames_.reserve(mb);
  queue_ms_.reserve(mb);
  e2e_ms_.reserve(mb);
}

Replica::~Replica() { join(); }

void Replica::start(BoundedQueue<Request>& shard) {
  thread_ = std::thread([this, &shard] { run(shard); });
}

void Replica::join() {
  if (thread_.joinable()) thread_.join();
}

void Replica::swap_model(std::unique_ptr<Backend> backend,
                         std::uint64_t epoch) {
  if (!backend) {
    throw std::invalid_argument("Replica::swap_model: null backend");
  }
  std::lock_guard lock(swap_mutex_);
  pending_backend_ = std::move(backend);
  pending_epoch_ = epoch;
  swap_staged_.store(true, std::memory_order_release);
}

void Replica::maybe_apply_swap() {
  if (!swap_staged_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(swap_mutex_);
  if (!pending_backend_) return;
  backend_ = std::move(pending_backend_);
  epoch_.store(pending_epoch_, std::memory_order_relaxed);
  swap_staged_.store(false, std::memory_order_relaxed);
}

double Replica::busy_residual_ms() const noexcept {
  const std::int64_t until = busy_until_ns_.load(std::memory_order_relaxed);
  const std::int64_t now = to_ns(Clock::now());
  if (until > now) return static_cast<double>(until - now) / 1e6;
  // The in-flight batch has overrun its prediction (or sits in the brief
  // window before one is posted). All we know is "still running" — and
  // returning 0 here is the worst possible answer: admission would
  // underestimate precisely when the replica is running late, admitting
  // frames that then wait behind the overrun. Assume one more service
  // quantum instead.
  return busy_.load(std::memory_order_relaxed) ? estimator_.est_ms() : 0.0;
}

void Replica::run(BoundedQueue<Request>& shard) {
  std::vector<Request> batch;
  for (;;) {
    if (!carry_.empty()) {
      // Locally retried requests go first: they were admitted before
      // anything still in the queue, and no peer would take them.
      batch = std::move(carry_);
      carry_.clear();
    } else {
      auto first = shard.pop();
      if (!first) break;  // closed and drained, nothing carried
      batch.clear();
      batch.push_back(std::move(*first));

      // Deadline-aware greedy drain: grow the batch only while the
      // predicted completion (batch size x EWMA service) still meets every
      // already-drained frame's deadline. The candidate itself can only
      // gain: being served in this batch is never later than waiting
      // behind it.
      const double est = estimator_.est_ms();
      auto min_deadline = batch.front().deadline;
      while (batch.size() < opts_.max_batch) {
        const auto predicted_done =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    est * static_cast<double>(batch.size() + 1)));
        if (predicted_done > min_deadline) break;
        auto next = shard.try_pop();
        if (!next) break;
        min_deadline = std::min(min_deadline, next->deadline);
        batch.push_back(std::move(*next));
      }
    }

    // Batch boundary: land a staged hot-swap before serving. Because the
    // stage completes before any subsequently submitted frame can be
    // popped, every such frame is served by the new backend.
    maybe_apply_swap();

    if (serve_batch(batch)) {
      consecutive_faults_ = 0;
    } else {
      handle_fault(batch, shard);
    }
  }
}

void Replica::handle_fault(std::vector<Request>& batch,
                           BoundedQueue<Request>& shard) {
  metrics_.record_backend_fault(opts_.id);
  faults_.fetch_add(1, std::memory_order_relaxed);
  ++consecutive_faults_;

  // Admitted frames are never lost: offer each to a healthy peer; whoever
  // the gateway cannot place stays here for a local retry. The delivery
  // channel travels with the request, so exactly-once delivery is
  // preserved no matter how many hops recovery takes.
  const auto rehome = [this](Request& r) {
    ++r.redispatches;
    if (redispatch_ && redispatch_(r)) {
      metrics_.record_redispatched();
    } else {
      carry_.push_back(std::move(r));
    }
  };
  for (auto& r : batch) rehome(r);
  batch.clear();

  if (consecutive_faults_ < opts_.quarantine_after) return;

  // Fault streak: quarantine. Routing already avoids us (health flips
  // before the drain), the backlog goes to peers, and we sleep an
  // exponentially backed-off restart delay. Anything nobody would take is
  // retried here after the backoff — better late than lost.
  health_.store(ReplicaHealth::kQuarantined, std::memory_order_relaxed);
  metrics_.record_quarantine(opts_.id);
  while (auto queued = shard.try_pop()) rehome(*queued);

  const auto restarts = restarts_.load(std::memory_order_relaxed);
  const double factor =
      static_cast<double>(1ull << std::min<std::uint64_t>(restarts, 20));
  const double backoff_ms =
      std::min(opts_.backoff_max_ms, opts_.backoff_initial_ms * factor);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(backoff_ms));

  restarts_.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_restart(opts_.id);
  consecutive_faults_ = 0;
  health_.store(ReplicaHealth::kHealthy, std::memory_order_relaxed);
}

bool Replica::serve_batch(std::vector<Request>& batch) {
  const std::size_t n = batch.size();
  const auto start = Clock::now();
  const double est = estimator_.est_ms();
  busy_.store(true, std::memory_order_relaxed);
  busy_until_ns_.store(
      to_ns(start) +
          static_cast<std::int64_t>(est * static_cast<double>(n) * 1e6),
      std::memory_order_relaxed);

  // All batch scratch lives in members sized once (constructor): the
  // steady-state serve loop must not touch the heap. frames_ holds the
  // requests' input tensors during inference (returned on fault or via the
  // response slot); outputs_ is a persistent pool of output buffers that
  // infer_batch_into reuses in place.
  // Fault recovery can carry more requests than max_batch (the quarantine
  // drain funnels a whole queue into carry_); grow the pool to match. Only
  // that recovery path allocates — steady state never exceeds max_batch.
  if (outputs_.size() < n) outputs_.resize(n);
  frames_.clear();
  for (auto& r : batch) frames_.push_back(std::move(r.frame));
  bool served = true;
  try {
    backend_->infer_batch_into(frames_,
                               std::span<Tensor>(outputs_.data(), n));
  } catch (...) {
    served = false;
  }
  const auto done = Clock::now();
  busy_until_ns_.store(0, std::memory_order_relaxed);
  busy_.store(false, std::memory_order_relaxed);
  if (!served) {
    // Backend fault (worker crash). Put the frames back where they came
    // from — the requests must survive intact for redispatch — and report
    // the batch unserved. The what() is deliberately not propagated: the
    // caller's recovery does not branch on it, and an admitted frame's
    // promise must never carry an exception.
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].frame = std::move(frames_[i]);
    }
    return false;
  }

  const double service_ms = ms_between(start, done);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  queue_ms_.clear();
  e2e_ms_.clear();
  std::size_t misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = batch[i];
    if (r.mirror && shadow_tap_) {
      // Mirror before the output leaves the pool; the tap copies
      // (frame, output) into the shadow queue and never blocks.
      shadow_tap_(r.id, r.stream, frames_[i], outputs_[i]);
    }
    const double q_ms = ms_between(r.arrival, start);
    const double end_ms = ms_between(r.arrival, done);
    const bool met = done <= r.deadline;
    queue_ms_.push_back(q_ms);
    e2e_ms_.push_back(end_ms);
    if (!met) ++misses;
    // One fill for both channels: in place in the preallocated slot
    // (zero-allocation path), or in a local Response handed to the promise.
    // The swap recycles the slot client's previous output buffer into our
    // pool (same shape, so the next inference reuses it); a local Response
    // swaps in an empty tensor, which the next inference sizes.
    Response local;
    Response& resp = r.slot != nullptr ? r.slot->response() : local;
    resp.id = r.id;
    resp.stream = r.stream;
    std::swap(resp.output, outputs_[i]);
    resp.replica = opts_.id;
    resp.batch_size = n;
    resp.queue_ms = q_ms;
    resp.service_ms = service_ms;
    resp.e2e_ms = end_ms;
    resp.deadline_met = met;
    resp.redispatches = r.redispatches;
    resp.model_epoch = epoch;
    if (r.slot != nullptr) {
      // frame_return hands the input buffer back for the producer's next
      // assembly.
      r.slot->frame_return() = std::move(frames_[i]);
      r.slot->publish();
    } else if (r.promise) {
      r.promise->set_value(std::move(local));
    }
  }

  estimator_.observe(service_ms / static_cast<double>(n));
  metrics_.record_batch(opts_.id, service_ms, queue_ms_, e2e_ms_, misses);
  return true;
}

}  // namespace reads::serve
