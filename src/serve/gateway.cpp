#include "serve/gateway.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace reads::serve {

namespace {

/// A faulted frame is offered to peers at most this many times before the
/// faulting replica must retry it locally (bounds redispatch ping-pong
/// when every backend is unhealthy at once).
constexpr std::size_t kMaxRedispatch = 8;

/// Admit only when predicted completion <= margin * budget; the headroom
/// absorbs service-time jitter between prediction and execution.
constexpr double kAdmissionMargin = 0.9;

/// Deterministic mirror selection: a pure function of the request id, so a
/// replayed stream mirrors exactly the same frames regardless of timing.
bool mirror_selected(std::uint64_t id, double fraction) noexcept {
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  util::SplitMix64 sm(id);
  return static_cast<double>(sm.next()) <
         fraction * 18446744073709551616.0;  // 2^64
}

/// Default shadow verdict: elementwise agreement with the incumbent within
/// a loose band (quantization-level differences pass; a wrong model fails).
bool default_judge(const Tensor& primary, const Tensor& shadow) {
  if (primary.numel() != shadow.numel()) return false;
  for (std::size_t i = 0; i < primary.numel(); ++i) {
    if (std::abs(primary[i] - shadow[i]) > 0.25) return false;
  }
  return true;
}

}  // namespace

/// One mirrored frame awaiting a shadow verdict.
struct ShadowItem {
  std::uint64_t id = 0;
  std::uint64_t stream = 0;
  Tensor frame;
  Tensor primary;
};

struct Gateway::ShadowSession {
  explicit ShadowSession(ShadowConfig c) : cfg(c), queue(c.queue_capacity) {}

  ShadowConfig cfg;
  BackendFactory factory;
  ShadowJudge judge;
  std::unique_ptr<Backend> candidate;
  std::uint64_t candidate_epoch = 0;
  BoundedQueue<ShadowItem> queue;
  std::thread worker;
  /// Mirroring + judging continue only while true; flips on promote,
  /// rollback, or end_shadow().
  std::atomic<bool> active{true};
  /// Set by end_shadow(): mirroring stops and verdicts freeze, but the
  /// worker still judges every frame mirrored before the call.
  std::atomic<bool> ending{false};
  std::atomic<ShadowOutcome> outcome{ShadowOutcome::kActive};
  std::atomic<std::uint64_t> mirrored{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> judged{0};
  std::atomic<std::uint64_t> rejects{0};
  std::atomic<std::uint64_t> windows{0};
  std::atomic<std::uint64_t> clean_windows{0};
  /// Shadow-worker private: verdicts within the current window.
  std::size_t window_judged = 0;
  std::size_t window_rejects = 0;

  ShadowStatus status() const {
    ShadowStatus s;
    s.active = active.load(std::memory_order_relaxed);
    s.outcome = outcome.load(std::memory_order_relaxed);
    s.candidate_epoch = candidate_epoch;
    s.mirrored = mirrored.load(std::memory_order_relaxed);
    s.dropped = dropped.load(std::memory_order_relaxed);
    s.judged = judged.load(std::memory_order_relaxed);
    s.rejects = rejects.load(std::memory_order_relaxed);
    s.windows = windows.load(std::memory_order_relaxed);
    s.clean_windows = clean_windows.load(std::memory_order_relaxed);
    return s;
  }
};

std::string_view to_string(ShadowOutcome outcome) noexcept {
  switch (outcome) {
    case ShadowOutcome::kNone: return "none";
    case ShadowOutcome::kActive: return "active";
    case ShadowOutcome::kPromoted: return "promoted";
    case ShadowOutcome::kRolledBack: return "rolled_back";
    case ShadowOutcome::kEnded: return "ended";
  }
  return "?";
}

std::string_view to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kPredictedLate: return "predicted_late";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShutdown: return "shutdown";
  }
  return "?";
}

Gateway::Gateway(std::vector<std::unique_ptr<Backend>> backends,
                 GatewayConfig cfg)
    : cfg_(cfg), metrics_(backends.size()) {
  if (backends.empty()) {
    throw std::invalid_argument("Gateway: need at least one backend");
  }
  if (cfg_.max_batch == 0) {
    throw std::invalid_argument("Gateway: max_batch must be positive");
  }
  shards_.reserve(backends.size());
  replicas_.reserve(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    shards_.push_back(
        std::make_unique<BoundedQueue<Request>>(cfg_.queue_capacity));
    Replica::Options opts;
    opts.id = i;
    opts.max_batch = cfg_.max_batch;
    opts.initial_service_est_ms = cfg_.initial_service_est_ms;
    opts.quarantine_after = cfg_.quarantine_after;
    opts.backoff_initial_ms = cfg_.backoff_initial_ms;
    opts.backoff_max_ms = cfg_.backoff_max_ms;
    replicas_.push_back(std::make_unique<Replica>(
        opts, std::move(backends[i]), metrics_));
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->set_redispatch(
        [this, i](Request& req) { return redispatch(i, req); });
    replicas_[i]->set_shadow_tap(
        [this](std::uint64_t id, std::uint64_t stream, const Tensor& frame,
               const Tensor& output) { on_mirror(id, stream, frame, output); });
    replicas_[i]->start(*shards_[i]);
  }
}

Gateway::~Gateway() { stop(); }

void Gateway::stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  end_shadow();
  for (auto& shard : shards_) shard->close();
  for (auto& replica : replicas_) replica->join();
}

void Gateway::swap_all(const BackendFactory& factory, std::uint64_t epoch) {
  if (!factory) {
    throw std::invalid_argument("Gateway::swap_all: null backend factory");
  }
  // Build every fresh backend before staging any: a factory that throws on
  // the k-th call must not leave a mixed-generation fleet behind, so the
  // exception propagates with the incumbent generation fully intact.
  std::vector<std::unique_ptr<Backend>> fresh;
  fresh.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) fresh.push_back(factory());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->swap_model(std::move(fresh[i]), epoch);
  }
  model_epoch_.store(epoch, std::memory_order_relaxed);
}

std::shared_ptr<Gateway::ShadowSession> Gateway::shadow_session() const {
  std::lock_guard lock(shadow_mutex_);
  return shadow_;
}

bool Gateway::begin_shadow(BackendFactory factory, ShadowConfig cfg,
                           ShadowJudge judge) {
  if (!factory) {
    throw std::invalid_argument("Gateway::begin_shadow: null backend factory");
  }
  if (cfg.fraction <= 0.0 || cfg.window == 0 || cfg.queue_capacity == 0) {
    throw std::invalid_argument(
        "Gateway::begin_shadow: fraction, window, and queue_capacity must "
        "be positive");
  }
  if (stopped_.load(std::memory_order_relaxed)) return false;
  std::unique_lock lock(shadow_mutex_);
  if (shadow_ && shadow_->active.load(std::memory_order_relaxed)) {
    return false;
  }
  if (shadow_) {
    // A terminal session (promoted / rolled back) whose worker was never
    // reaped: finish it outside the lock before starting anew.
    lock.unlock();
    end_shadow();
    lock.lock();
    if (shadow_) return false;  // someone else began a session meanwhile
  }
  auto session = std::make_shared<ShadowSession>(cfg);
  session->candidate = factory();  // may throw; nothing published yet
  session->factory = std::move(factory);
  session->judge = judge ? std::move(judge)
                         : [](std::uint64_t, const Tensor&,
                              const Tensor& primary, const Tensor& shadow) {
                             return default_judge(primary, shadow);
                           };
  session->candidate_epoch = model_epoch_.load(std::memory_order_relaxed) + 1;
  session->worker = std::thread([this, session] { shadow_run(session); });
  shadow_ = session;
  return true;
}

ShadowStatus Gateway::end_shadow() {
  std::shared_ptr<ShadowSession> session;
  {
    std::lock_guard lock(shadow_mutex_);
    session = std::move(shadow_);
    shadow_.reset();
  }
  if (!session) {
    std::lock_guard lock(shadow_mutex_);
    return last_shadow_status_;
  }
  session->ending.store(true, std::memory_order_relaxed);
  session->queue.close();
  if (session->worker.joinable()) session->worker.join();
  session->active.store(false, std::memory_order_relaxed);
  ShadowOutcome expected = ShadowOutcome::kActive;
  session->outcome.compare_exchange_strong(expected, ShadowOutcome::kEnded,
                                           std::memory_order_relaxed);
  auto status = session->status();
  status.active = false;
  {
    std::lock_guard lock(shadow_mutex_);
    last_shadow_status_ = status;
  }
  return status;
}

ShadowStatus Gateway::shadow_status() const {
  std::lock_guard lock(shadow_mutex_);
  if (shadow_) return shadow_->status();
  return last_shadow_status_;
}

void Gateway::on_mirror(std::uint64_t id, std::uint64_t stream,
                        const Tensor& frame, const Tensor& primary) {
  auto session = shadow_session();
  if (!session || !session->active.load(std::memory_order_relaxed) ||
      session->ending.load(std::memory_order_relaxed)) {
    return;
  }
  ShadowItem item;
  item.id = id;
  item.stream = stream;
  item.frame = frame;
  item.primary = primary;
  if (session->queue.try_push(item)) {
    session->mirrored.fetch_add(1, std::memory_order_relaxed);
  } else {
    session->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void Gateway::shadow_run(std::shared_ptr<ShadowSession> session) {
  auto& s = *session;
  while (auto item = s.queue.pop()) {
    // After a verdict, drain only; after end_shadow(), judge but never
    // promote or roll back.
    if (!s.active.load(std::memory_order_relaxed)) continue;
    bool ok = false;
    try {
      const Tensor shadow_out = s.candidate->infer(item->frame);
      ok = s.judge(item->stream, item->frame, item->primary, shadow_out);
    } catch (...) {
      ok = false;  // a faulting candidate is a rejecting candidate
    }
    s.judged.fetch_add(1, std::memory_order_relaxed);
    ++s.window_judged;
    if (!ok) {
      s.rejects.fetch_add(1, std::memory_order_relaxed);
      ++s.window_rejects;
    }
    if (s.window_judged < s.cfg.window ||
        s.ending.load(std::memory_order_relaxed)) {
      continue;
    }

    s.windows.fetch_add(1, std::memory_order_relaxed);
    if (s.window_rejects > s.cfg.max_rejects) {
      // Regression: discard the candidate. Live traffic only ever saw the
      // incumbent, so the fleet is already "rolled back" — bit-identically.
      s.clean_windows.store(0, std::memory_order_relaxed);
      s.outcome.store(ShadowOutcome::kRolledBack, std::memory_order_relaxed);
      s.active.store(false, std::memory_order_relaxed);
    } else {
      const auto clean =
          s.clean_windows.fetch_add(1, std::memory_order_relaxed) + 1;
      if (clean >= s.cfg.promote_after) {
        // This runs on the shadow worker thread: an escaping exception would
        // reach the thread entry point and std::terminate the process. A
        // user-supplied factory that throws at promotion therefore demotes
        // the candidate instead — swap_all builds every backend before
        // staging any, so the fleet still serves the incumbent generation.
        try {
          swap_all(s.factory, s.candidate_epoch);
          s.outcome.store(ShadowOutcome::kPromoted, std::memory_order_relaxed);
        } catch (...) {
          s.clean_windows.store(0, std::memory_order_relaxed);
          s.outcome.store(ShadowOutcome::kRolledBack,
                          std::memory_order_relaxed);
        }
        s.active.store(false, std::memory_order_relaxed);
      }
    }
    s.window_judged = 0;
    s.window_rejects = 0;
  }
}

double Gateway::predicted_completion_ms(std::size_t shard) const {
  const auto& replica = *replicas_.at(shard);
  // RFC 6298-style conservative estimate: mean + 4x mean deviation, so
  // admission is gated on a high service quantile. Admitting against the
  // mean would let ~half the borderline frames finish late — exactly the
  // frames admission control exists to refuse.
  return replica.estimator().predicted_ms(shards_[shard]->size()) +
         replica.busy_residual_ms();
}

std::size_t Gateway::pick_shard(std::uint64_t stream) const {
  // A quarantined replica is in restart backoff: frames routed to it would
  // sit until it wakes, so healthy shards win even under kByStream (stream
  // pinning is a latency optimization, not a correctness property — the
  // pinned shard resumes on recovery). With every replica quarantined the
  // normal policy applies; queues still drain after restart.
  const auto healthy = [&](std::size_t i) {
    return replicas_[i]->health() == ReplicaHealth::kHealthy;
  };
  if (cfg_.sharding == ShardPolicy::kByStream || shards_.size() == 1) {
    const auto pinned = static_cast<std::size_t>(stream % shards_.size());
    if (healthy(pinned) || shards_.size() == 1) return pinned;
  }
  std::size_t best = 0;
  double best_ms = std::numeric_limits<double>::infinity();
  bool best_healthy = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const double ms = predicted_completion_ms(i);
    const bool h = healthy(i);
    // Any healthy shard beats any quarantined one; ties break on backlog.
    if ((h && !best_healthy) || (h == best_healthy && ms < best_ms)) {
      best_ms = ms;
      best = i;
      best_healthy = h;
    }
  }
  return best;
}

bool Gateway::redispatch(std::size_t from, Request& req) {
  if (req.redispatches > kMaxRedispatch) return false;
  // Cheapest healthy peer first; try_push only moves the request out on
  // success, so walking the candidates cannot lose it.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == from) continue;
    if (replicas_[i]->health() != ReplicaHealth::kHealthy) continue;
    order.emplace_back(predicted_completion_ms(i), i);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [ms, shard] : order) {
    if (shards_[shard]->try_push(req)) return true;
  }
  return false;
}

Ticket Gateway::submit(Tensor frame, std::uint64_t stream) {
  return submit(std::move(frame), stream, cfg_.deadline_ms);
}

template <class AttachChannel>
RejectReason Gateway::admit(Tensor& frame, std::uint64_t stream,
                            double deadline_ms, AttachChannel&& attach) {
  metrics_.record_arrival();
  if (stopped_.load(std::memory_order_relaxed)) {
    metrics_.record_shed_shutdown();
    return RejectReason::kShutdown;
  }

  const auto now = Clock::now();
  const std::size_t shard = pick_shard(stream);
  const bool has_deadline = deadline_ms > 0.0;

  // Work-conservation floor: an empty shard with an idle replica never
  // sheds. Shedding exists to protect *other* frames from queueing delay
  // and the node from wasted work; with nothing queued and nothing running
  // there is nobody to protect, and serving the frame keeps the EWMA
  // service estimate fresh — otherwise a transiently inflated estimate
  // (one slow batch on a noisy host) could exceed the whole budget and
  // latch the gateway shut with no new observations to correct it.
  const bool idle =
      shards_[shard]->size() == 0 && !replicas_[shard]->busy();
  if (cfg_.admission_control && has_deadline && !idle &&
      predicted_completion_ms(shard) > kAdmissionMargin * deadline_ms) {
    metrics_.record_shed_predicted_late();
    return RejectReason::kPredictedLate;
  }

  Request req;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (auto session = shadow_session();
      session && session->active.load(std::memory_order_relaxed)) {
    req.mirror = mirror_selected(req.id, session->cfg.fraction);
  }
  req.stream = stream;
  req.frame = std::move(frame);
  req.arrival = now;
  req.deadline = has_deadline
                     ? now + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     deadline_ms))
                     : Clock::time_point::max();
  attach(req);
  if (!shards_[shard]->try_push(req)) {
    // Full or closed under us; the frame was never enqueued and goes back
    // to the caller.
    frame = std::move(req.frame);
    if (shards_[shard]->closed()) {
      metrics_.record_shed_shutdown();
      return RejectReason::kShutdown;
    }
    metrics_.record_shed_queue_full();
    return RejectReason::kQueueFull;
  }
  metrics_.record_admitted();
  return RejectReason::kNone;
}

Ticket Gateway::submit(Tensor frame, std::uint64_t stream, double deadline_ms) {
  Ticket ticket;
  ticket.reason = admit(frame, stream, deadline_ms, [&](Request& req) {
    req.promise.emplace();
    ticket.response = req.promise->get_future();
  });
  ticket.admitted = ticket.reason == RejectReason::kNone;
  if (!ticket.admitted) ticket.response = {};
  return ticket;
}

RejectReason Gateway::submit_into(Tensor& frame, ResponseSlot& slot,
                                  std::uint64_t stream, double deadline_ms) {
  return admit(frame, stream, deadline_ms, [&](Request& req) {
    slot.reset();
    req.slot = &slot;
  });
}

}  // namespace reads::serve
