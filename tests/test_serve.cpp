// Serving gateway tests: bounded MPMC queue semantics, replica micro-
// batching, deadline-aware admission control, sharding, metrics, and the
// gateway's core guarantee — every admitted frame gets exactly one
// response, bit-identical to direct single-threaded inference.
//
// The pure-concurrency suites here (BoundedQueue*, Replica*, GatewayTest*,
// ServeMetrics*) run under ThreadSanitizer via tools/check.sh.
// Timing-dependent tests assert logical properties (counts, batch bounds,
// no loss), never wall-clock bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "hls/firmware.hpp"
#include "hls/precision.hpp"
#include "hls/profiler.hpp"
#include "nn/builders.hpp"
#include "nn/init.hpp"
#include "serve/backend.hpp"
#include "serve/gateway.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/replica.hpp"
#include "util/rng.hpp"

#include "mutate.hpp"

namespace {

using namespace reads;
using namespace std::chrono_literals;
using serve::BoundedQueue;
using serve::Clock;
using serve::RejectReason;
using tensor::Tensor;

Tensor test_frame(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Tensor t({n, 1});
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Deterministic backend with a controllable service time. Sleeping (not
/// spinning) keeps single-core hosts honest: the submitting thread still
/// runs while a "busy" replica waits.
class SyntheticBackend final : public serve::Backend {
 public:
  explicit SyntheticBackend(std::chrono::microseconds service = 0us)
      : service_(service) {}

  std::string_view name() const noexcept override { return "synthetic"; }

  Tensor infer(const Tensor& frame) override {
    if (service_ > 0us) std::this_thread::sleep_for(service_);
    Tensor out = frame;
    for (auto& v : out.flat()) v = 2.0f * v + 1.0f;
    calls_.fetch_add(1);
    return out;
  }

  std::atomic<std::size_t> calls_{0};

 private:
  std::chrono::microseconds service_;
};

std::vector<std::unique_ptr<serve::Backend>> synthetic_backends(
    std::size_t n, std::chrono::microseconds service = 0us) {
  std::vector<std::unique_ptr<serve::Backend>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<SyntheticBackend>(service));
  }
  return out;
}

// ---------------------------------------------------------- BoundedQueue

TEST(BoundedQueue, TryVariantsRespectCapacity) {
  BoundedQueue<int> q(2);
  int a = 1;
  int b = 2;
  int c = 3;
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));  // full: overload is visible, not buffered
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_TRUE(q.try_push(c));
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_EQ(q.try_pop().value(), 3);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  int v = 7;
  ASSERT_TRUE(q.try_push(v));
  q.close();
  int w = 8;
  EXPECT_FALSE(q.try_push(w));  // no new items after close
  EXPECT_FALSE(q.push(9));
  EXPECT_EQ(q.pop().value(), 7);        // but queued items drain
  EXPECT_FALSE(q.pop().has_value());    // then pop reports end-of-stream
}

TEST(BoundedQueue, BlockingPopWakesOnPush) {
  BoundedQueue<int> q(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    q.push(42);
  });
  EXPECT_EQ(q.pop().value(), 42);  // parked until the producer delivers
  producer.join();
}

TEST(BoundedQueue, BlockingPushWakesOnPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread consumer([&] {
    std::this_thread::sleep_for(10ms);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
  });
  EXPECT_TRUE(q.push(2));  // blocks until the consumer frees a slot
  consumer.join();
}

TEST(BoundedQueue, RingWrapsPreserveFifoOrder) {
  // The ring storage reuses slots in place; order must survive arbitrary
  // interleavings of push/pop across many wraps of a small ring.
  BoundedQueue<int> q(3);
  int next = 0;
  int expect = 0;
  for (int round = 0; round < 20; ++round) {
    int a = next++;
    int b = next++;
    ASSERT_TRUE(q.try_push(a));
    ASSERT_TRUE(q.try_push(b));
    EXPECT_EQ(q.try_pop().value(), expect++);
    int c = next++;
    ASSERT_TRUE(q.try_push(c));
    EXPECT_EQ(q.try_pop().value(), expect++);
    EXPECT_EQ(q.try_pop().value(), expect++);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::atomic<long long> sum{0};
  std::atomic<std::size_t> popped{0};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(static_cast<int>(p * kPerProducer) + i));
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();

  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), static_cast<std::size_t>(n));
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value exactly once
}

// --------------------------------------------------------------- Replica

serve::Request make_request(std::uint64_t id, const Tensor& frame,
                            Clock::time_point deadline,
                            std::future<serve::Response>& future) {
  serve::Request req;
  req.id = id;
  req.frame = frame;
  req.arrival = Clock::now();
  req.deadline = deadline;
  req.promise.emplace();
  future = req.promise->get_future();
  return req;
}

TEST(Replica, DrainsQueuedFramesIntoMicroBatches) {
  serve::Metrics metrics(1);
  BoundedQueue<serve::Request> shard(16);
  const auto frame = test_frame(8, 1);
  constexpr std::size_t kFrames = 9;
  std::vector<std::future<serve::Response>> futures(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto req =
        make_request(i + 1, frame, Clock::time_point::max(), futures[i]);
    ASSERT_TRUE(shard.try_push(req));
  }
  shard.close();

  serve::Replica::Options opts;
  opts.max_batch = 4;
  serve::Replica replica(opts, std::make_unique<SyntheticBackend>(), metrics);
  replica.start(shard);
  replica.join();

  std::size_t max_batch = 0;
  for (auto& f : futures) {
    auto resp = f.get();
    max_batch = std::max(max_batch, resp.batch_size);
    EXPECT_LE(resp.batch_size, opts.max_batch);
  }
  // The whole backlog was waiting with no deadline pressure, so the replica
  // must have used real micro-batches (first batch drains to max_batch).
  EXPECT_EQ(max_batch, opts.max_batch);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.replicas[0].frames, kFrames);
  EXPECT_EQ(snap.replicas[0].max_batch, opts.max_batch);
  EXPECT_LT(snap.replicas[0].batches, kFrames);  // fewer batches than frames
}

TEST(Replica, ExpiredDeadlinesSuppressBatchGrowth) {
  serve::Metrics metrics(1);
  BoundedQueue<serve::Request> shard(16);
  const auto frame = test_frame(8, 2);
  // Deadlines already in the past: growing a batch can only add delay for
  // frames that are late, so the replica serves them one at a time.
  const auto past = Clock::now() - 1ms;
  constexpr std::size_t kFrames = 6;
  std::vector<std::future<serve::Response>> futures(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto req = make_request(i + 1, frame, past, futures[i]);
    ASSERT_TRUE(shard.try_push(req));
  }
  shard.close();

  serve::Replica::Options opts;
  opts.max_batch = 4;
  serve::Replica replica(opts, std::make_unique<SyntheticBackend>(), metrics);
  replica.start(shard);
  replica.join();

  for (auto& f : futures) {
    auto resp = f.get();
    EXPECT_EQ(resp.batch_size, 1u);
    EXPECT_FALSE(resp.deadline_met);
  }
  EXPECT_EQ(metrics.snapshot().deadline_misses, kFrames);
}

// ------------------------------------------------- Replica self-healing

/// Backend whose first `fail_first` inference calls throw (a worker dying
/// mid-request), then behaves exactly like SyntheticBackend.
class FlakyBackend final : public serve::Backend {
 public:
  explicit FlakyBackend(std::size_t fail_first) : remaining_(fail_first) {}

  std::string_view name() const noexcept override { return "flaky"; }

  Tensor infer(const Tensor& frame) override {
    auto left = remaining_.load();
    while (left > 0 && !remaining_.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) throw std::runtime_error("flaky backend fault");
    Tensor out = frame;
    for (auto& v : out.flat()) v = 2.0f * v + 1.0f;
    return out;
  }

 private:
  std::atomic<std::size_t> remaining_;
};

TEST(Replica, BackendFaultRetriesLocallyWithoutLosingFrames) {
  serve::Metrics metrics(1);
  BoundedQueue<serve::Request> shard(16);
  SyntheticBackend oracle;
  constexpr std::size_t kFrames = 6;
  std::vector<std::future<serve::Response>> futures(kFrames);
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = test_frame(8, 40 + i);
    expected.push_back(oracle.infer(frame));
    auto req =
        make_request(i + 1, frame, Clock::time_point::max(), futures[i]);
    ASSERT_TRUE(shard.try_push(req));
  }
  shard.close();

  serve::Replica::Options opts;
  opts.max_batch = 2;
  serve::Replica replica(opts, std::make_unique<FlakyBackend>(1), metrics);
  replica.start(shard);
  replica.join();

  // One fault, no redispatch hook installed: the faulted batch must be
  // retried locally and every frame still answered bit-identically.
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(futures[i].get().output, expected[i]) << i;
  }
  EXPECT_EQ(replica.backend_faults(), 1u);
  EXPECT_EQ(replica.restarts(), 0u);  // streak 1 < quarantine_after
  EXPECT_EQ(replica.health(), serve::ReplicaHealth::kHealthy);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.backend_faults, 1u);
  EXPECT_EQ(snap.quarantines, 0u);
}

TEST(Replica, FaultStreakQuarantinesBacksOffAndRestarts) {
  serve::Metrics metrics(1);
  BoundedQueue<serve::Request> shard(16);
  SyntheticBackend oracle;
  constexpr std::size_t kFrames = 5;
  std::vector<std::future<serve::Response>> futures(kFrames);
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = test_frame(8, 60 + i);
    expected.push_back(oracle.infer(frame));
    auto req =
        make_request(i + 1, frame, Clock::time_point::max(), futures[i]);
    ASSERT_TRUE(shard.try_push(req));
  }
  shard.close();

  serve::Replica::Options opts;
  opts.max_batch = 2;
  opts.quarantine_after = 2;
  opts.backoff_initial_ms = 0.25;
  opts.backoff_max_ms = 1.0;
  serve::Replica replica(opts, std::make_unique<FlakyBackend>(3), metrics);
  replica.start(shard);
  replica.join();

  // Three consecutive faults against quarantine_after = 2: the replica must
  // quarantine, back off, restart, and still deliver every frame.
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(futures[i].get().output, expected[i]) << i;
  }
  EXPECT_EQ(replica.backend_faults(), 3u);
  EXPECT_GE(replica.restarts(), 1u);
  EXPECT_EQ(replica.health(), serve::ReplicaHealth::kHealthy);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.backend_faults, 3u);
  EXPECT_GE(snap.quarantines, 1u);
  EXPECT_GE(snap.restarts, 1u);
}

// --------------------------------------------------------------- Gateway

TEST(GatewayTest, ServesBitIdenticalToDirectInference) {
  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;  // no deadline: everything is admitted
  cfg.max_batch = 3;
  serve::Gateway gateway(synthetic_backends(2), cfg);

  SyntheticBackend oracle;
  constexpr std::size_t kFrames = 64;
  std::vector<serve::Ticket> tickets;
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = test_frame(8, 100 + i);
    expected.push_back(oracle.infer(frame));
    tickets.push_back(gateway.submit(frame, /*stream=*/i % 5));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    auto resp = tickets[i].response.get();
    EXPECT_EQ(resp.output, expected[i]) << "frame " << i;
    EXPECT_EQ(resp.stream, i % 5);
  }
  gateway.stop();
  const auto snap = gateway.metrics().snapshot();
  EXPECT_EQ(snap.arrived, kFrames);
  EXPECT_EQ(snap.admitted, kFrames);
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_EQ(snap.sheds(), 0u);
}

TEST(GatewayTest, EveryAdmittedFrameAnsweredExactlyOnceThroughShutdown) {
  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;
  cfg.queue_capacity = 128;
  serve::Gateway gateway(synthetic_backends(2, 500us), cfg);

  const auto frame = test_frame(8, 3);
  std::vector<serve::Ticket> tickets;
  for (std::size_t i = 0; i < 40; ++i) {
    tickets.push_back(gateway.submit(frame, i));
  }
  gateway.stop();  // closes shards; replicas must drain the backlog

  std::size_t admitted = 0;
  std::size_t answered = 0;
  for (auto& t : tickets) {
    if (!t.admitted) continue;
    ++admitted;
    // future::get() succeeds exactly once per admitted frame; a dropped
    // request would leave a broken promise and throw here.
    auto resp = t.response.get();
    EXPECT_EQ(resp.output.numel(), frame.numel());
    ++answered;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(answered, admitted);
  EXPECT_EQ(gateway.metrics().snapshot().completed, admitted);

  // After stop(), new arrivals are refused as shutdown sheds.
  auto late = gateway.submit(frame, 0);
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, RejectReason::kShutdown);
}

/// The two admission entry points: submit() (promise channel) and
/// submit_into() (slot channel). They share one admission body, so every
/// shed test drives both.
enum class Entry { kSubmit, kSubmitInto };

/// A burst of `n` copies of `frame` (stream i) through one entry point.
/// Returns each frame's admission verdict after every admitted frame has
/// been answered. A frame refused by submit_into() must still be the
/// caller's, untouched, and a predicted-late shed must leave the caller's
/// slot as it was (here: still holding a previous response).
std::vector<RejectReason> burst(serve::Gateway& gateway, Entry entry,
                                const Tensor& frame, std::size_t n) {
  std::vector<RejectReason> reasons;
  std::vector<serve::Ticket> tickets;
  std::vector<serve::ResponseSlot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (entry == Entry::kSubmit) {
      tickets.push_back(gateway.submit(frame, i));
      EXPECT_EQ(tickets.back().admitted,
                tickets.back().reason == RejectReason::kNone);
      reasons.push_back(tickets.back().reason);
      continue;
    }
    Tensor mine = frame;
    slots[i].publish();  // as if it still held the previous response
    reasons.push_back(gateway.submit_into(mine, slots[i], i,
                                          gateway.config().deadline_ms));
    if (reasons.back() != RejectReason::kNone) {
      EXPECT_EQ(mine, frame) << "a refused frame stays with the caller";
    }
    if (reasons.back() == RejectReason::kPredictedLate) {
      EXPECT_TRUE(slots[i].ready()) << "a late shed must not reset the slot";
    }
  }
  // Still exactly-once for everything admitted.
  for (auto& t : tickets) {
    if (t.admitted) t.response.get();
  }
  for (std::size_t i = 0; i < n && entry == Entry::kSubmitInto; ++i) {
    if (reasons[i] == RejectReason::kNone) slots[i].wait();
  }
  return reasons;
}

TEST(GatewayTest, AdmissionControlShedsPredictedLateFrames) {
  for (const Entry entry : {Entry::kSubmit, Entry::kSubmitInto}) {
    SCOPED_TRACE(entry == Entry::kSubmit ? "submit" : "submit_into");
    serve::GatewayConfig cfg;
    cfg.deadline_ms = 20.0;
    cfg.initial_service_est_ms = 5.0;
    cfg.queue_capacity = 64;
    serve::Gateway gateway(synthetic_backends(1, 5000us), cfg);

    std::size_t admitted = 0;
    std::size_t shed = 0;
    for (const auto reason : burst(gateway, entry, test_frame(8, 4), 12)) {
      if (reason == RejectReason::kNone) {
        ++admitted;
      } else {
        EXPECT_EQ(reason, RejectReason::kPredictedLate);
        ++shed;
      }
    }
    // 12 frames x 5 ms against a 20 ms budget: the gateway must admit the
    // head of the burst and shed the tail at admission, not after service.
    EXPECT_GT(admitted, 0u);
    EXPECT_GT(shed, 0u);
    gateway.stop();
    const auto snap = gateway.metrics().snapshot();
    EXPECT_EQ(snap.shed_predicted_late, shed);
    EXPECT_EQ(snap.shed_queue_full, 0u);
    EXPECT_EQ(snap.completed, admitted);
  }
}

TEST(GatewayTest, FullShardShedsAtAdmission) {
  for (const Entry entry : {Entry::kSubmit, Entry::kSubmitInto}) {
    SCOPED_TRACE(entry == Entry::kSubmit ? "submit" : "submit_into");
    serve::GatewayConfig cfg;
    cfg.deadline_ms = 0.0;  // capacity is the only limiter
    cfg.queue_capacity = 2;
    serve::Gateway gateway(synthetic_backends(1, 2000us), cfg);

    std::size_t queue_full = 0;
    for (const auto reason : burst(gateway, entry, test_frame(8, 5), 16)) {
      if (reason == RejectReason::kQueueFull) ++queue_full;
    }
    EXPECT_GT(queue_full, 0u);
    gateway.stop();
    const auto snap = gateway.metrics().snapshot();
    EXPECT_EQ(snap.shed_queue_full, queue_full);
    EXPECT_EQ(snap.shed_predicted_late, 0u);
  }
}

TEST(GatewayTest, ByStreamShardingPinsStreamsToReplicas) {
  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;
  cfg.sharding = serve::ShardPolicy::kByStream;
  serve::Gateway gateway(synthetic_backends(3), cfg);

  const auto frame = test_frame(8, 6);
  std::vector<serve::Ticket> tickets;
  std::vector<std::uint64_t> streams;
  for (std::size_t i = 0; i < 30; ++i) {
    const std::uint64_t stream = i % 7;
    streams.push_back(stream);
    tickets.push_back(gateway.submit(frame, stream));
  }
  std::map<std::uint64_t, std::set<std::size_t>> replicas_by_stream;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    replicas_by_stream[streams[i]].insert(tickets[i].response.get().replica);
  }
  for (const auto& [stream, replicas] : replicas_by_stream) {
    EXPECT_EQ(replicas.size(), 1u) << "stream " << stream;
    EXPECT_EQ(*replicas.begin(), stream % gateway.replica_count());
  }
}

TEST(GatewayTest, FaultedFramesRedispatchToAHealthyPeer) {
  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;
  cfg.quarantine_after = 1;
  cfg.backoff_initial_ms = 0.25;
  cfg.backoff_max_ms = 1.0;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(
      std::make_unique<FlakyBackend>(100000));  // replica 0 never recovers
  backends.push_back(std::make_unique<SyntheticBackend>());
  serve::Gateway gateway(std::move(backends), cfg);

  SyntheticBackend oracle;
  constexpr std::size_t kFrames = 20;
  std::vector<serve::Ticket> tickets;
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = test_frame(8, 70 + i);
    expected.push_back(oracle.infer(frame));
    tickets.push_back(gateway.submit(frame, i));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    auto resp = tickets[i].response.get();
    EXPECT_EQ(resp.output, expected[i]) << "frame " << i;
    // The sick replica can never complete a batch, so every answer comes
    // from its healthy peer — via redispatch for the frames it was dealt.
    EXPECT_EQ(resp.replica, 1u) << "frame " << i;
  }
  gateway.stop();
  const auto snap = gateway.metrics().snapshot();
  EXPECT_EQ(snap.completed, kFrames);
  EXPECT_GT(snap.backend_faults, 0u);
  EXPECT_GE(snap.quarantines, 1u);
  EXPECT_GE(snap.redispatched, 1u);
  EXPECT_EQ(snap.replicas[0].faults, gateway.replica(0).backend_faults());
}

TEST(GatewayTest, QuantizedBackendMatchesDirectModel) {
  // A real (tiny) quantized model across 2 replicas: gateway outputs must
  // be bit-identical to single-threaded QuantizedModel::forward.
  auto model = nn::build_mlp({.inputs = 16, .hidden = 8, .outputs = 6});
  nn::init_he_uniform(model, 21);
  std::vector<Tensor> calib;
  for (std::uint64_t s = 0; s < 4; ++s) {
    calib.push_back(test_frame(16, 300 + s).reshaped({1, 16}));
  }
  const auto profile = hls::profile_model(model, calib);
  hls::HlsConfig hls_cfg;
  hls_cfg.quant = hls::layer_based_config(model, profile, 16);
  const auto firmware = hls::compile(model, hls_cfg);
  const hls::QuantizedModel direct(firmware);

  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;
  cfg.max_batch = 4;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<serve::QuantizedBackend>(firmware));
  backends.push_back(std::make_unique<serve::QuantizedBackend>(firmware));
  serve::Gateway gateway(std::move(backends), cfg);

  constexpr std::size_t kFrames = 32;
  std::vector<serve::Ticket> tickets;
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto frame = test_frame(16, 400 + i).reshaped({1, 16});
    expected.push_back(direct.forward(frame));
    tickets.push_back(gateway.submit(frame, i % 3));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(tickets[i].admitted);
    EXPECT_EQ(tickets[i].response.get().output, expected[i]) << "frame " << i;
  }
}

// --------------------------------------------------------- ServeMetrics

TEST(ServeMetrics, SnapshotAndJsonCarryAllStages) {
  serve::Metrics metrics(2);
  metrics.record_arrival();
  metrics.record_arrival();
  metrics.record_arrival();
  metrics.record_admitted();
  metrics.record_admitted();
  metrics.record_shed_predicted_late();
  const double queue_ms[] = {0.5, 1.0};
  const double e2e_ms[] = {2.5, 3.5};
  metrics.record_batch(1, 4.0, queue_ms, e2e_ms, 1);

  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.arrived, 3u);
  EXPECT_EQ(snap.admitted, 2u);
  EXPECT_EQ(snap.sheds(), 1u);
  EXPECT_NEAR(snap.shed_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.deadline_misses, 1u);
  EXPECT_EQ(snap.replicas[1].frames, 2u);
  EXPECT_EQ(snap.replicas[1].batches, 1u);
  EXPECT_NEAR(snap.replicas[1].busy_ms, 4.0, 1e-6);
  // goodput counts only in-deadline completions
  EXPECT_NEAR(snap.goodput_fps(2.0), 0.5, 1e-12);

  const auto json = snap.to_json(2.0);
  for (const char* key :
       {"\"arrived\"", "\"admitted\"", "\"shed\"", "\"goodput_fps\"",
        "\"e2e_ms\"", "\"queue_hist\"", "\"e2e_hist\"", "\"replicas\"",
        "\"utilization\"", "\"max_batch\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The embedded histogram is itself valid util::stats JSON.
  const auto hist_pos = json.find("\"e2e_hist\": ");
  auto hist = util::Histogram::from_json(json.substr(hist_pos + 12));
  EXPECT_EQ(hist.total(), 2u);
}

TEST(ServeMetrics, JsonRoundTripsExactlyIncludingHistogramTails) {
  serve::Metrics metrics(2);
  for (int i = 0; i < 5; ++i) metrics.record_arrival();
  for (int i = 0; i < 4; ++i) metrics.record_admitted();
  metrics.record_shed_predicted_late();
  metrics.record_backend_fault(0);
  metrics.record_quarantine(0);
  metrics.record_restart(0);
  metrics.record_redispatched();
  // One latency beyond the histogram range (top end bucket) and one below
  // zero (bottom end bucket): the wire snapshot must carry both, or a
  // merged cluster report would silently shrink its totals.
  const double queue_ms[] = {0.25, -1.0};
  const double e2e_ms[] = {1e9, 2.25};
  metrics.record_batch(1, 3.5, queue_ms, e2e_ms, 1);
  constexpr std::size_t kTop = util::Histogram::kBuckets - 1;

  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.e2e_ms.count(kTop), 1u);
  EXPECT_EQ(snap.queue_ms.count(0), 1u);

  const auto json = snap.to_json(2.0, /*include_samples=*/true);
  auto back = serve::MetricsSnapshot::from_json(json);
  EXPECT_EQ(back.arrived, snap.arrived);
  EXPECT_EQ(back.admitted, snap.admitted);
  EXPECT_EQ(back.shed_predicted_late, snap.shed_predicted_late);
  EXPECT_EQ(back.completed, snap.completed);
  EXPECT_EQ(back.deadline_misses, snap.deadline_misses);
  EXPECT_EQ(back.backend_faults, snap.backend_faults);
  EXPECT_EQ(back.quarantines, snap.quarantines);
  EXPECT_EQ(back.restarts, snap.restarts);
  EXPECT_EQ(back.redispatched, snap.redispatched);
  ASSERT_EQ(back.replicas.size(), snap.replicas.size());
  EXPECT_EQ(back.replicas[1].frames, snap.replicas[1].frames);
  EXPECT_NEAR(back.replicas[1].busy_ms, snap.replicas[1].busy_ms, 1e-12);
  EXPECT_EQ(back.e2e_ms.total(), snap.e2e_ms.total());
  EXPECT_EQ(back.e2e_ms, snap.e2e_ms);
  EXPECT_EQ(back.queue_ms, snap.queue_ms);
  EXPECT_EQ(back.e2e_ms.count(kTop), 1u);
  EXPECT_EQ(back.queue_ms.count(0), 1u);
  // Strongest form: the re-parsed snapshot re-exports byte-identically.
  EXPECT_EQ(back.to_json(2.0, true), json);
}

TEST(ServeMetrics, MergeAggregatesPerProcessSnapshotsExactly) {
  // Two "processes", one replica each — exactly the shape the cluster
  // stats path merges.
  serve::Metrics a(1);
  serve::Metrics b(1);
  a.record_arrival();
  a.record_arrival();
  a.record_admitted();
  const double qa[] = {0.5};
  const double ea[] = {1.0};
  a.record_batch(0, 1.0, qa, ea, 0);
  b.record_arrival();
  b.record_admitted();
  b.record_shed_queue_full();
  const double qb[] = {0.75, 0.25};
  const double eb[] = {3.0, 5.0};
  b.record_batch(0, 2.0, qb, eb, 2);

  // Through the wire: to_json with samples, from_json, then merge — the
  // exact route router stats take for N replica processes.
  auto merged = serve::MetricsSnapshot::from_json(
      a.snapshot().to_json(1.0, true));
  merged.merge(serve::MetricsSnapshot::from_json(
      b.snapshot().to_json(1.0, true)));

  EXPECT_EQ(merged.arrived, 3u);
  EXPECT_EQ(merged.admitted, 2u);
  EXPECT_EQ(merged.sheds(), 1u);
  EXPECT_EQ(merged.completed, 3u);
  EXPECT_EQ(merged.deadline_misses, 2u);
  // Replica rows concatenate: each process owns distinct hardware.
  ASSERT_EQ(merged.replicas.size(), 2u);
  EXPECT_EQ(merged.replicas[0].frames, 1u);
  EXPECT_EQ(merged.replicas[1].frames, 2u);
  EXPECT_EQ(merged.e2e_ms.total(), 3u);
  // Percentiles over the union of retained samples are exact: the median
  // of {1, 3, 5} is 3, which neither process saw as its own median.
  EXPECT_NEAR(merged.e2e_samples.median(), 3.0, 1e-12);
  // Histograms merge exactly: one histogram of the union.
  util::Histogram e2e;
  for (double v : {1.0, 3.0, 5.0}) e2e.add(v);
  EXPECT_EQ(merged.e2e_ms, e2e);
}

// Replica stats replies cross a socket. Damaged copies of a real wire
// snapshot must parse or throw std::invalid_argument; nothing else may
// happen.
TEST(ServeMetrics, MutatedJsonParsesOrThrowsInvalidArgument) {
  serve::Metrics metrics(2);
  for (int i = 0; i < 6; ++i) metrics.record_arrival();
  for (int i = 0; i < 5; ++i) metrics.record_admitted();
  metrics.record_shed_queue_full();
  metrics.record_backend_fault(1);
  const double queue_ms[] = {0.0, 0.125, 2.5};
  const double e2e_ms[] = {0.75, 3.25, 120.0};
  metrics.record_batch(0, 2.0, queue_ms, e2e_ms, 2);
  metrics.record_batch(1, 1.5, std::span(queue_ms, 2), std::span(e2e_ms, 2),
                       1);
  const std::string valid = metrics.snapshot().to_json(1.0, true);

  util::Xoshiro256 rng(0x5A75u);
  std::size_t rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string bytes = reads::test::mutate(valid, rng);
    try {
      (void)serve::MetricsSnapshot::from_json(bytes);
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// -------------------------------------------- hot-swap / shadow rollout

/// Deterministic y = a*x + b backend; distinct (a, b) distinguish model
/// generations bit-exactly.
class AffineBackend final : public serve::Backend {
 public:
  AffineBackend(float a, float b) : a_(a), b_(b) {}

  std::string_view name() const noexcept override { return "affine"; }

  Tensor infer(const Tensor& frame) override {
    Tensor out = frame;
    for (auto& v : out.flat()) v = a_ * v + b_;
    return out;
  }

 private:
  float a_;
  float b_;
};

serve::GatewayConfig swap_test_config() {
  serve::GatewayConfig cfg;
  cfg.deadline_ms = 0.0;  // functional tests: no shedding
  cfg.queue_capacity = 256;
  return cfg;
}

/// Serve `n` fresh frames one at a time (each answered before the next).
/// With ShadowConfig::fraction 1.0 every one of them is mirrored.
void serve_frames(serve::Gateway& gw, unsigned n, unsigned seed) {
  for (unsigned i = 0; i < n; ++i) {
    auto t = gw.submit(test_frame(16, seed + i));
    ASSERT_TRUE(t.admitted);
    t.response.get();
  }
}

/// Wait until the shadow session reaches a verdict (leaves kActive). The
/// bound is wall time, not a frame count: under CPU load the shadow worker
/// can be starved for many milliseconds while the primary path keeps
/// serving, and end_shadow() never promotes or rolls back on its own.
serve::ShadowStatus wait_for_verdict(const serve::Gateway& gw) {
  const auto until = Clock::now() + 30s;
  while (gw.shadow_status().outcome == serve::ShadowOutcome::kActive &&
         Clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  return gw.shadow_status();
}

TEST(GatewayTest, SwapAllServesNewGenerationWithEpochStamps) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());
  AffineBackend v1_oracle(2.0f, 1.0f);
  AffineBackend v2_oracle(3.0f, -1.0f);

  EXPECT_EQ(gw.model_epoch(), 1u);
  for (int i = 0; i < 8; ++i) {
    const auto f = test_frame(16, 100u + static_cast<unsigned>(i));
    auto t = gw.submit(f, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(t.admitted);
    auto r = t.response.get();
    EXPECT_EQ(r.model_epoch, 1u);
    EXPECT_EQ(r.output, v1_oracle.infer(f));
  }

  gw.swap_all([] { return std::make_unique<AffineBackend>(3.0f, -1.0f); },
              2);
  EXPECT_EQ(gw.model_epoch(), 2u);

  // Frames submitted after swap_all() returns are served by the new
  // generation, bit-identical to its oracle and stamped with its epoch.
  for (int i = 0; i < 8; ++i) {
    const auto f = test_frame(16, 200u + static_cast<unsigned>(i));
    auto t = gw.submit(f, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(t.admitted);
    auto r = t.response.get();
    EXPECT_EQ(r.model_epoch, 2u);
    EXPECT_EQ(r.output, v2_oracle.infer(f));
  }
  gw.stop();
}

TEST(Replica, SwapModelRejectsNullBackend) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(1.0f, 0.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());
  EXPECT_THROW(gw.replica(0).swap_model(nullptr, 2), std::invalid_argument);
  gw.stop();
}

TEST(GatewayTest, ShadowPromotesCleanCandidateFleetWide) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());
  // Candidate differs by a constant 0.2 — inside the default judge's 0.25
  // elementwise tolerance, so every mirror verdict is clean.
  AffineBackend cand_oracle(2.0f, 1.2f);

  serve::ShadowConfig sc;
  sc.fraction = 1.0;  // mirror everything: deterministic window progress
  sc.window = 4;
  sc.max_rejects = 0;
  sc.promote_after = 2;
  ASSERT_TRUE(gw.begin_shadow(
      [] { return std::make_unique<AffineBackend>(2.0f, 1.2f); }, sc));
  EXPECT_FALSE(gw.begin_shadow(
      [] { return std::make_unique<AffineBackend>(2.0f, 1.2f); }, sc))
      << "second session while one is active must be refused";

  // Two clean windows of four mirrors each earn the promotion.
  serve_frames(gw, 8, 300);
  EXPECT_EQ(wait_for_verdict(gw).outcome, serve::ShadowOutcome::kPromoted);
  const auto status = gw.end_shadow();
  EXPECT_EQ(status.outcome, serve::ShadowOutcome::kPromoted);
  EXPECT_GE(status.judged, 8u);
  EXPECT_EQ(status.rejects, 0u);
  EXPECT_GE(status.clean_windows, 2u);
  EXPECT_EQ(gw.model_epoch(), 2u);

  for (int i = 0; i < 4; ++i) {
    const auto f = test_frame(16, 400u + static_cast<unsigned>(i));
    auto t = gw.submit(f);
    ASSERT_TRUE(t.admitted);
    auto r = t.response.get();
    EXPECT_EQ(r.model_epoch, 2u);
    EXPECT_EQ(r.output, cand_oracle.infer(f));
  }
  gw.stop();
}

TEST(GatewayTest, ShadowRollsBackRegressingCandidateBitIdentically) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());
  AffineBackend v1_oracle(2.0f, 1.0f);

  serve::ShadowConfig sc;
  sc.fraction = 1.0;
  sc.window = 4;
  sc.max_rejects = 0;
  sc.promote_after = 2;
  // Candidate is wrong by +9 on every element: every verdict rejects and
  // the first completed window must roll it back.
  ASSERT_TRUE(gw.begin_shadow(
      [] { return std::make_unique<AffineBackend>(2.0f, 10.0f); }, sc));

  serve_frames(gw, 4, 500);
  EXPECT_EQ(wait_for_verdict(gw).outcome, serve::ShadowOutcome::kRolledBack);
  const auto status = gw.end_shadow();
  EXPECT_EQ(status.outcome, serve::ShadowOutcome::kRolledBack);
  EXPECT_GT(status.rejects, sc.max_rejects);

  // Live traffic never saw the candidate: the fleet still serves the prior
  // generation bit-identically, same epoch as before.
  EXPECT_EQ(gw.model_epoch(), 1u);
  for (int i = 0; i < 4; ++i) {
    const auto f = test_frame(16, 600u + static_cast<unsigned>(i));
    auto t = gw.submit(f);
    ASSERT_TRUE(t.admitted);
    auto r = t.response.get();
    EXPECT_EQ(r.model_epoch, 1u);
    EXPECT_EQ(r.output, v1_oracle.infer(f));
  }

  // A terminal session does not block the next rollout attempt.
  EXPECT_TRUE(gw.begin_shadow(
      [] { return std::make_unique<AffineBackend>(2.0f, 1.1f); }, sc));
  gw.end_shadow();
  gw.stop();
}

TEST(GatewayTest, SwapAllThrowingFactoryLeavesFleetUntouched) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  auto cfg = swap_test_config();
  cfg.sharding = serve::ShardPolicy::kByStream;  // hit both shards below
  serve::Gateway gw(std::move(backends), cfg);
  AffineBackend v1_oracle(2.0f, 1.0f);

  // Succeeds for replica 0's backend, throws for replica 1's: swap_all must
  // build every backend before staging any, so neither replica swaps.
  auto calls = std::make_shared<std::atomic<int>>(0);
  EXPECT_THROW(gw.swap_all(
                   [calls]() -> std::unique_ptr<serve::Backend> {
                     if (calls->fetch_add(1) > 0) {
                       throw std::runtime_error("factory failure");
                     }
                     return std::make_unique<AffineBackend>(3.0f, -1.0f);
                   },
                   2),
               std::runtime_error);
  EXPECT_EQ(gw.model_epoch(), 1u);

  // Both shards still serve the incumbent generation, epoch 1.
  for (std::uint64_t stream = 0; stream < 2; ++stream) {
    const auto f = test_frame(16, 900u + stream);
    auto t = gw.submit(f, stream);
    ASSERT_TRUE(t.admitted);
    auto r = t.response.get();
    EXPECT_EQ(r.model_epoch, 1u);
    EXPECT_EQ(r.output, v1_oracle.infer(f));
  }
  gw.stop();
}

TEST(GatewayTest, ShadowPromotionFactoryThrowRollsBackInsteadOfTerminating) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(2.0f, 1.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());
  AffineBackend v1_oracle(2.0f, 1.0f);

  serve::ShadowConfig sc;
  sc.fraction = 1.0;
  sc.window = 2;
  sc.max_rejects = 0;
  sc.promote_after = 1;
  // First call builds the (clean, incumbent-identical) shadow candidate;
  // every later call — i.e. swap_all at promotion, on the shadow worker
  // thread — throws. The exception must be absorbed as a rollback, not
  // escape the thread and std::terminate the process.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(gw.begin_shadow(
      [calls]() -> std::unique_ptr<serve::Backend> {
        if (calls->fetch_add(1) > 0) {
          throw std::runtime_error("promotion factory failure");
        }
        return std::make_unique<AffineBackend>(2.0f, 1.0f);
      },
      sc));

  serve_frames(gw, 2, 950);
  wait_for_verdict(gw);
  const auto status = gw.end_shadow();
  EXPECT_EQ(status.outcome, serve::ShadowOutcome::kRolledBack);
  EXPECT_EQ(status.rejects, 0u) << "candidate itself was clean";

  // The fleet never changed generation.
  EXPECT_EQ(gw.model_epoch(), 1u);
  const auto f = test_frame(16, 999);
  auto t = gw.submit(f);
  ASSERT_TRUE(t.admitted);
  auto r = t.response.get();
  EXPECT_EQ(r.model_epoch, 1u);
  EXPECT_EQ(r.output, v1_oracle.infer(f));
  gw.stop();
}

TEST(GatewayTest, ShadowJudgeSeesStreamAndGroundTruthHook) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<AffineBackend>(1.0f, 0.0f));
  serve::Gateway gw(std::move(backends), swap_test_config());

  std::atomic<std::uint64_t> judged_streams{0};
  serve::ShadowConfig sc;
  sc.fraction = 1.0;
  sc.window = 2;
  sc.max_rejects = 0;
  sc.promote_after = 1;
  ASSERT_TRUE(gw.begin_shadow(
      [] { return std::make_unique<AffineBackend>(1.0f, 0.0f); }, sc,
      [&judged_streams](std::uint64_t stream, const Tensor& frame,
                        const Tensor& primary, const Tensor& shadow) {
        judged_streams.fetch_add(stream);
        return frame.numel() == primary.numel() &&
               primary.numel() == shadow.numel();
      }));
  for (int i = 1; i <= 8; ++i) {
    auto t = gw.submit(test_frame(16, 700u + static_cast<unsigned>(i)),
                       static_cast<std::uint64_t>(i));
    ASSERT_TRUE(t.admitted);
    t.response.get();
  }
  // No wait for a verdict here: end_shadow() itself judges every frame
  // mirrored before the call, however far the shadow worker lags.
  const auto status = gw.end_shadow();
  EXPECT_GE(status.judged, 2u);
  EXPECT_GT(judged_streams.load(), 0u) << "judge must receive stream ids";
  gw.stop();
}

// ----------------------------------------------------- zero-alloc submit

TEST(GatewayTest, SubmitIntoDeliversIntoSlotAndRecyclesBuffers) {
  serve::GatewayConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  cfg.deadline_ms = 0.0;  // no deadline: only capacity can reject
  serve::Gateway gw(synthetic_backends(1), cfg);

  serve::ResponseSlot slot;
  Tensor frame;
  std::uint64_t last_id = 0;
  for (unsigned lap = 0; lap < 12; ++lap) {
    if (lap == 0) {
      frame = test_frame(8, 1000);
    } else {
      // Steady state: the replica hands the input buffer back through the
      // slot; reuse its storage for the next frame.
      frame = std::move(slot.frame_return());
      ASSERT_EQ(frame.numel(), 8u) << "frame buffer must come back";
      for (auto& v : frame.flat()) v = static_cast<float>(lap);
    }
    const Tensor sent = frame;  // copy for the expectation check
    ASSERT_EQ(gw.submit_into(frame, slot, /*stream=*/5u + lap, 0.0),
              RejectReason::kNone)
        << lap;
    serve::Response& resp = slot.wait();
    EXPECT_EQ(resp.stream, 5u + lap);
    EXPECT_GT(resp.id, last_id) << "ids must keep increasing";
    last_id = resp.id;
    ASSERT_EQ(resp.output.numel(), sent.numel());
    for (std::size_t i = 0; i < sent.numel(); ++i) {
      EXPECT_EQ(resp.output[i], 2.0f * sent[i] + 1.0f) << "lap " << lap;
    }
  }

  gw.stop();
  // After shutdown the frame must stay with the caller, untouched.
  Tensor again = test_frame(8, 2000);
  serve::ResponseSlot slot2;
  EXPECT_EQ(gw.submit_into(again, slot2, 0, 0.0), RejectReason::kShutdown);
  EXPECT_EQ(again.numel(), 8u);
}

TEST(GatewayTest, SubmitIntoAndSubmitCoexist) {
  // Slot-based and promise-based submissions may interleave on one shard;
  // each delivery channel must get exactly its own response.
  serve::GatewayConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;
  cfg.deadline_ms = 0.0;
  serve::Gateway gw(synthetic_backends(1), cfg);

  for (unsigned lap = 0; lap < 6; ++lap) {
    auto ticket = gw.submit(test_frame(8, 30u + lap), 1);
    ASSERT_TRUE(ticket.admitted);
    serve::ResponseSlot slot;
    Tensor frame = test_frame(8, 60u + lap);
    const Tensor sent = frame;
    ASSERT_EQ(gw.submit_into(frame, slot, 2, 0.0), RejectReason::kNone);
    const auto from_future = ticket.response.get();
    serve::Response& from_slot = slot.wait();
    EXPECT_EQ(from_future.stream, 1u);
    EXPECT_EQ(from_slot.stream, 2u);
    for (std::size_t i = 0; i < sent.numel(); ++i) {
      EXPECT_EQ(from_slot.output[i], 2.0f * sent[i] + 1.0f);
    }
  }
  gw.stop();
}

}  // namespace
