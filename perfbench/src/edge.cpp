// edge_nominal / edge_overload: the in-process control path.
//
//   wire bytes -> net::PacketDecoder -> FrameAssembler::assemble_into
//   -> train::Standardizer::transform -> serve::Gateway::submit_into
//   -> replica (TimedBackend(QuantizedBackend)) -> serve::ResponseSlot
//
// One generator thread paces every stream's ticks from the seeded schedule
// and never waits for a reply. A tick's reply time is its submit start plus
// the gateway's own Response::e2e_ms (arrival -> batch done), so the
// generator need not observe the slot at the instant it is published.
#include <algorithm>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "host.hpp"
#include "net/assembler.hpp"
#include "net/wire.hpp"
#include "serve/gateway.hpp"

namespace perfbench {

namespace {

namespace rs = reads::serve;
namespace rn = reads::net;

struct EdgeStack {
  Deployed deployed;
  std::vector<const TimedBackend*> timed;  ///< owned by the gateway
  std::unique_ptr<rs::Gateway> gateway;
};

std::unique_ptr<EdgeStack> build_edge(const std::atomic<bool>& armed) {
  auto stack = std::make_unique<EdgeStack>();
  std::vector<std::unique_ptr<rs::Backend>> backends;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    auto timed = std::make_unique<TimedBackend>(
        std::make_unique<rs::QuantizedBackend>(stack->deployed.firmware), armed);
    stack->timed.push_back(timed.get());
    backends.push_back(std::move(timed));
  }
  rs::GatewayConfig cfg;
  cfg.queue_capacity = kQueueCapacity;
  cfg.max_batch = kMaxBatch;
  cfg.deadline_ms = kDeadlineMs;
  cfg.initial_service_est_ms = kServiceSeedMs;
  // Pinned shards: least-loaded sharding stops choosing a replica whose
  // service estimate spiked once, so runs split at random between a
  // balanced and a starved regime (see README.md).
  cfg.sharding = rs::ShardPolicy::kByStream;
  stack->gateway = std::make_unique<rs::Gateway>(std::move(backends), cfg);
  return stack;
}

/// Serving-layer observations taken from each answered Response.
struct ServeStats {
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::vector<double> batch;
  std::vector<std::uint64_t> per_replica;
};

}  // namespace

Report run_edge(const Args& args) {
  const Workload& w = args.workload;
  std::atomic<bool> armed{false};

  // Set-up, timed kSetupRepeats times; the last stack serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<EdgeStack> stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = build_edge(armed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rs::Gateway& gateway = *stack->gateway;
  const auto& standardizer = stack->deployed.bundle.standardizer;

  // Harness material (untimed): schedule, frame pool, oracle.
  rn::AssemblerParams ap;  // facility defaults: 260 monitors, 7 hubs
  TickRun run;
  run.trace = args.trace;
  run.schedule = make_schedule(
      {.streams = w.streams,
       .duration_ns = static_cast<std::int64_t>(args.seconds * 1e9),
       .seed = args.seed});
  run.results.resize(run.schedule.size());
  const auto pool = deployment_frames(args.seed);
  const auto oracle = make_oracle(stack->deployed, pool);

  std::vector<rn::FrameAssembler> assemblers(w.streams, rn::FrameAssembler(ap));
  std::vector<rn::Delivery> deliveries(ap.hubs);
  rn::AssembledFrame assembled;
  rn::PacketDecoder decoder;
  TickEncoder encoder(ap.monitors, ap.hubs);
  std::vector<std::uint8_t> bytes;

  // Response slots: admitted ticks are bounded by the shards' capacity plus
  // the batches in flight, far below this.
  std::vector<rs::ResponseSlot> slots(1024);
  std::vector<std::uint32_t> free_slots(slots.size());
  for (std::uint32_t s = 0; s < free_slots.size(); ++s) {
    free_slots[s] = static_cast<std::uint32_t>(free_slots.size()) - 1 - s;
  }
  struct InFlight {
    std::uint32_t slot;
    std::uint32_t tick;
    std::int64_t submit_ns;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(slots.size());
  std::vector<std::uint8_t> seen_ids(run.schedule.size() + 2, 0);
  ServeStats stats;
  stats.per_replica.assign(kReplicas, 0);

  SpanLog log;
  if (args.trace) log.reserve(run.schedule.size() * 3);

  // Collect every published slot; an unpublished one stays pending (after
  // gateway.stop() that means lost).
  auto harvest = [&] {
    for (std::size_t k = 0; k < inflight.size();) {
      const InFlight f = inflight[k];
      if (!slots[f.slot].ready()) {
        ++k;
        continue;
      }
      const rs::Response& resp = slots[f.slot].response();
      TickResult& r = run.results[f.tick];
      const TickSpec& t = run.schedule[f.tick];
      r.status = TickStatus::kAnswered;
      r.replies = 1;
      r.reply_ns = f.submit_ns + static_cast<std::int64_t>(resp.e2e_ms * 1e6);
      r.match = resp.stream == t.stream &&
                bit_identical(resp.output, oracle[t.frame]);
      if (resp.id < seen_ids.size() && seen_ids[resp.id]++ > 0) r.replies = 2;
      if (args.trace && t.due_ns >= kWarmupNs) {
        stats.queue_ms.push_back(resp.queue_ms);
        stats.service_ms.push_back(resp.service_ms);
        stats.batch.push_back(static_cast<double>(resp.batch_size));
        if (resp.replica < stats.per_replica.size()) {
          ++stats.per_replica[resp.replica];
        }
      }
      if (r.traced) {
        log.add(Layer::kTick, run.t0_ns + t.due_ns, r.reply_ns, f.tick);
      }
      free_slots.push_back(f.slot);
      inflight[k] = inflight.back();
      inflight.pop_back();
    }
  };

  run.t0_ns = now_ns() + 5'000'000;
  for (std::uint32_t i = 0; i < run.schedule.size(); ++i) {
    const TickSpec& t = run.schedule[i];
    TickResult& r = run.results[i];
    encoder.serialize(pool[t.frame], t.seq, bytes);  // the hubs' side
    harvest();
    const std::int64_t due = run.t0_ns + t.due_ns;
    std::this_thread::sleep_until(to_time_point(due));
    r.traced = args.trace && in_trace_block(t.due_ns);
    armed.store(r.traced, std::memory_order_relaxed);

    const std::int64_t s0 = now_ns();
    decoder.feed(bytes);
    for (auto& d : deliveries) {
      auto packet = decoder.next();
      if (!packet) throw std::runtime_error("packet decoder lost a packet");
      d.packet = std::move(*packet);
    }
    const std::int64_t s1 = now_ns();
    assemblers[t.stream].assemble_into(t.seq, deliveries, assembled);
    const std::int64_t s2 = now_ns();
    reads::tensor::Tensor frame = standardizer.transform(assembled.raw);
    const std::int64_t s3 = now_ns();
    if (free_slots.empty()) throw std::runtime_error("response slots exhausted");
    const std::uint32_t slot = free_slots.back();
    const rs::RejectReason reason =
        gateway.submit_into(frame, slots[slot], t.stream, kDeadlineMs);
    const std::int64_t s4 = now_ns();

    r.sent_ns = s0;
    switch (reason) {
      case rs::RejectReason::kNone:
        r.status = TickStatus::kPending;
        free_slots.pop_back();
        inflight.push_back({slot, i, s3});
        break;
      case rs::RejectReason::kPredictedLate:
        r.status = TickStatus::kShedLate;
        break;
      case rs::RejectReason::kQueueFull:
        r.status = TickStatus::kShedFull;
        break;
      default:
        r.status = TickStatus::kShedOther;
        break;
    }
    if (r.traced) {
      log.add(Layer::kDecode, s0, s1, i, Layer::kTick);
      log.add(Layer::kAssemble, s1, s2, i, Layer::kTick);
      log.add(Layer::kStandardize, s2, s3, i, Layer::kTick);
      log.add(Layer::kSubmit, s3, s4, i, Layer::kTick);
    }
  }
  armed.store(false, std::memory_order_relaxed);
  gateway.stop();  // serve everything admitted, join the replicas
  const double wall_ms = static_cast<double>(now_ns() - run.t0_ns) / 1e6;
  harvest();

  Report report;
  account_ticks(run, setup_s, peak_rss_mb(), report);

  std::uint64_t rejects = 0;
  for (const auto& a : assemblers) rejects += a.counters().total_rejects();
  std::uint64_t hls_frames = 0;
  for (const auto* tb : stack->timed) {
    log.append(tb->log().spans());
    hls_frames += tb->frames();
  }
  const auto snap = gateway.metrics().snapshot();
  double busy_ms = 0.0;
  for (const auto& rep : snap.replicas) busy_ms += rep.busy_ms;

  std::uint64_t sent = 0;
  std::uint64_t shed_late = 0;
  std::uint64_t shed_full = 0;
  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    if (run.schedule[i].due_ns < kWarmupNs) continue;
    ++sent;
    shed_late += run.results[i].status == TickStatus::kShedLate;
    shed_full += run.results[i].status == TickStatus::kShedFull;
  }
  std::uint64_t served = 0;
  std::uint64_t top = 0;
  for (auto n : stats.per_replica) {
    served += n;
    top = std::max(top, n);
  }

  auto& m = report.per_layer;
  const auto& spans = log.spans();
  add_layer(m, "net.decode_us", layer_durations(spans, Layer::kDecode, 1e-3),
            "us");
  add_layer(m, "net.assemble_us",
            layer_durations(spans, Layer::kAssemble, 1e-3), "us");
  m["net.rejects"] = {static_cast<double>(rejects), "count"};
  add_layer(m, "train.standardize_us",
            layer_durations(spans, Layer::kStandardize, 1e-3), "us");
  add_layer(m, "serve.submit_us", layer_durations(spans, Layer::kSubmit, 1e-3),
            "us");
  add_layer(m, "serve.queue_ms", stats.queue_ms, "ms");
  add_layer(m, "serve.service_ms", stats.service_ms, "ms", false);
  m["serve.batch_frames.mean"] = {mean(stats.batch), "frames"};
  m["serve.shed_late_frac"] = {
      static_cast<double>(shed_late) / static_cast<double>(sent), "ratio"};
  m["serve.shed_full_frac"] = {
      static_cast<double>(shed_full) / static_cast<double>(sent), "ratio"};
  m["serve.replica_share_max"] = {
      served ? static_cast<double>(top) / static_cast<double>(served) : 0.0,
      "ratio"};
  m["serve.replica_busy_frac"] = {
      busy_ms / (wall_ms * static_cast<double>(kReplicas)), "ratio"};
  add_layer(m, "hls.infer_ms",
            layer_durations(spans, Layer::kInfer, 1e-6, true), "ms");
  m["hls.frames"] = {static_cast<double>(hls_frames), "count"};
  m["tick.self_ms.p50"] = {percentile(tick_self_ms(spans), 50.0), "ms"};

  if (args.trace) {
    write_spans(args.out_dir + "/" + w.name + "-seed" +
                    std::to_string(args.seed) + ".spans",
                spans);
  }
  return report;
}

}  // namespace perfbench
