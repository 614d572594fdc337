// Serving-gateway load benchmark: open-loop Poisson clients sweep offered
// load against a pool of quantized U-Net replicas behind serve::Gateway,
// measuring the saturation knee, admission shedding and tail latency
// (paper §VI deploys one 3 ms stream per node; this measures how many such
// streams one node can actually hold).
//
//   ./bench_serve [--replicas=0 (0 = hardware)] [--streams=4]
//                 [--deadline_ms=3] [--max_batch=4] [--queue_capacity=64]
//                 [--duration_s=2] [--threads=0] [--seed=7]
//                 [--out=BENCH_serve.json]
//
// Writes per-load-point p50/p99/p99.97 e2e latency (histogram bucket upper
// edges, at most 1/32 above the exact sample), shed rate, goodput and
// per-replica utilization to --out. Exits non-zero if
//   (a) any accepted frame is lost, duplicated, or its output differs
//       bit-wise from direct single-threaded inference on the same frame;
//   (b) with >= 4 replicas on >= 4 hardware threads, aggregate goodput
//       fails to reach 3x a single replica's capacity_fps (skipped and
//       reported as such on smaller hosts);
//   (c) at 2x overload the gateway fails to shed at admission, or the
//       accepted frames' p99 end-to-end latency exceeds
//       max(deadline, light-load p99 + 1 ms). The reference is the sweep's
//       own 0.5x point — same load generator, same machinery, queueing
//       minimal — because on a noisy shared host even DIRECT inference
//       blows the absolute SLO and no layer above the backend could pass
//       an absolute check. On a quiet host the light-load p99 sits well
//       under the deadline and the gate collapses to the absolute 3 ms
//       SLO. The mode used is printed and recorded in the JSON as
//       "absolute" or "relative";
//   (d) the steady-state frame path allocates: after warmup, a full
//       assembler -> submit_into -> replica -> ResponseSlot lap must
//       perform zero heap allocations per frame (measured by the global
//       operator-new counter; skipped and reported as such when a
//       sanitizer owns the allocator).
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/assembler.hpp"
#include "serve/backend.hpp"
#include "serve/gateway.hpp"
#include "util/allocguard.hpp"
#include "util/rng.hpp"

namespace {

using namespace reads;
using Clock = serve::Clock;

struct SubmitRecord {
  serve::Ticket ticket;
  std::size_t frame_idx = 0;
};

struct VerifyResult {
  std::size_t admitted = 0;
  std::size_t answered = 0;
  std::size_t lost = 0;
  std::size_t duplicated = 0;
  std::size_t mismatched = 0;
  bool clean() const { return lost + duplicated + mismatched == 0; }
};

struct LoadPoint {
  double offered_x = 0.0;    ///< offered load as a multiple of capacity
  double offered_fps = 0.0;  ///< realized arrival rate
  double wall_s = 0.0;
  double p99_e2e_ms = 0.0;
  serve::MetricsSnapshot metrics;
  VerifyResult verify;
};

/// One load point: `streams` open-loop Poisson client streams submit
/// standardized frames for `duration_s`, then the gateway drains and every
/// ticket is audited against the precomputed direct-inference oracle.
///
/// The streams are generated by ONE thread as the superposition of their
/// Poisson processes (merged rate = target_fps, each arrival assigned a
/// uniform stream id — statistically identical to independent clients).
/// One generator deliberately leaves the replica threads the CPU: per-core
/// preemption by a herd of mostly-sleeping client threads would measure the
/// host scheduler, not the gateway.
LoadPoint run_point(const hls::FirmwareModel& firmware,
                    const std::vector<tensor::Tensor>& frames,
                    const std::vector<tensor::Tensor>& oracle,
                    const serve::GatewayConfig& cfg, std::size_t replicas,
                    std::size_t streams, double target_fps, double offered_x,
                    double duration_s, std::uint64_t seed) {
  std::vector<std::unique_ptr<serve::Backend>> backends;
  for (std::size_t r = 0; r < replicas; ++r) {
    backends.push_back(std::make_unique<serve::QuantizedBackend>(firmware));
  }
  serve::Gateway gateway(std::move(backends), cfg);

  util::Xoshiro256 rng(util::derive_seed(seed, 1000));
  std::vector<SubmitRecord> records;
  records.reserve(static_cast<std::size_t>(target_fps * duration_s * 1.5));
  const auto t0 = Clock::now();
  const auto t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  // Open-loop: the next arrival time never waits for a response.
  auto next = Clock::now();
  while (true) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rng.exponential(target_fps)));
    if (next >= t_end) break;
    std::this_thread::sleep_until(next);
    const std::size_t idx = records.size() % frames.size();
    const auto stream = rng.uniform_int(streams);
    records.push_back({gateway.submit(frames[idx], stream), idx});
  }
  const double submit_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  gateway.stop();  // close shards, drain the admitted backlog
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  LoadPoint point;
  point.offered_x = offered_x;
  point.wall_s = wall_s;
  std::set<std::uint64_t> seen_ids;
  for (auto& rec : records) {
    if (!rec.ticket.admitted) continue;
    ++point.verify.admitted;
    serve::Response resp;
    try {
      resp = rec.ticket.response.get();
    } catch (const std::future_error&) {
      ++point.verify.lost;  // broken promise: an admitted frame vanished
      continue;
    }
    ++point.verify.answered;
    if (!seen_ids.insert(resp.id).second) ++point.verify.duplicated;
    if (!(resp.output == oracle[rec.frame_idx])) ++point.verify.mismatched;
  }
  point.offered_fps = static_cast<double>(records.size()) / submit_s;
  point.metrics = gateway.metrics().snapshot();
  point.p99_e2e_ms = point.metrics.e2e_samples.total() > 0
                         ? point.metrics.e2e_samples.percentile(99.0)
                         : 0.0;
  return point;
}

struct AllocAudit {
  bool counting = false;  ///< allocator instrumentation active (no sanitizer)
  std::size_t warmup_frames = 0;
  std::size_t measured_frames = 0;
  std::uint64_t allocations = 0;  ///< heap allocations inside the window
  double allocs_per_frame = 0.0;
  std::size_t served = 0;
  std::size_t queue_full_retries = 0;
  double checksum = 0.0;  ///< consumes every output so nothing is elided
};

/// Gate (d): steady-state allocation audit of the full ingest path.
///
/// One synthetic seven-hub tick feeds FrameAssembler::assemble_into, the
/// assembled frame goes through Gateway::submit_into with a preallocated
/// ResponseSlot ring, and the replica recycles both buffers back (output by
/// swap, input via frame_return). After `warmup` laps every buffer in the
/// cycle exists, so the measured window must not touch the heap at all —
/// the global operator-new counter (util::alloc_count) is read before and
/// after and the delta divided by the window length. kSlots frames are kept
/// in flight so the audit also exercises queue + micro-batch machinery, not
/// just a ping-pong.
AllocAudit run_alloc_audit(const hls::FirmwareModel& firmware,
                           double service_ms) {
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kWarmup = 256;
  constexpr std::size_t kWindow = 1024;
  constexpr std::size_t kTotal = kWarmup + kWindow;

  serve::GatewayConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  cfg.deadline_ms = 0.0;  // no deadline: nothing sheds as predicted-late
  cfg.initial_service_est_ms = std::max(1e-3, service_ms);
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<serve::QuantizedBackend>(firmware));
  serve::Gateway gateway(std::move(backends), cfg);

  // One tick's worth of hub deliveries, built once; each lap only bumps the
  // sequence number and reseals the CRC in place.
  net::AssemblerParams ap;  // facility defaults: 260 monitors, 7 hubs
  net::FrameAssembler assembler(ap);
  const auto layout = net::hub_layout(ap.monitors, ap.hubs);
  std::vector<net::Delivery> deliveries(ap.hubs);
  for (std::size_t h = 0; h < ap.hubs; ++h) {
    auto& d = deliveries[h];
    d.arrival_us = 120.0;
    d.dropped = false;
    d.packet.hub_id = static_cast<std::uint8_t>(h);
    d.packet.first_monitor = layout[h].first;
    d.packet.readings.resize(layout[h].second);
    for (std::size_t i = 0; i < d.packet.readings.size(); ++i) {
      d.packet.readings[i] = net::encode_reading(
          1000.0 + static_cast<double>(layout[h].first + i));
    }
  }

  std::array<serve::ResponseSlot, kSlots> slots;
  net::AssembledFrame af;

  AllocAudit audit;
  audit.counting = util::alloc_counting_active();
  audit.warmup_frames = kWarmup;
  audit.measured_frames = kWindow;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kTotal; ++i) {
    auto& slot = slots[i % kSlots];
    if (i >= kSlots) {
      // Ring full: consume the lap-old response and reclaim its buffers.
      serve::Response& r = slot.wait();
      audit.checksum += r.output.numel() ? static_cast<double>(r.output[0]) : 0.0;
      ++audit.served;
      af.raw = std::move(slot.frame_return());
    }
    const auto seq = static_cast<std::uint32_t>(i);
    for (auto& d : deliveries) {
      d.packet.sequence = seq;
      net::seal_packet(d.packet);
    }
    assembler.assemble_into(seq, deliveries, af);
    serve::RejectReason reason;
    // kSlots in flight < queue capacity, so kQueueFull cannot normally
    // happen; spin defensively rather than wedging the bench if it does.
    while ((reason = gateway.submit_into(af.raw, slot, i % kSlots, 0.0)) ==
           serve::RejectReason::kQueueFull) {
      ++audit.queue_full_retries;
      std::this_thread::yield();
    }
    if (reason != serve::RejectReason::kNone) break;  // shutdown: impossible
    if (i + 1 == kWarmup) before = util::alloc_count();
  }
  for (std::size_t j = kTotal - kSlots; j < kTotal; ++j) {
    serve::Response& r = slots[j % kSlots].wait();
    audit.checksum += r.output.numel() ? static_cast<double>(r.output[0]) : 0.0;
    ++audit.served;
  }
  const std::uint64_t after = util::alloc_count();
  gateway.stop();

  if (audit.counting) {
    audit.allocations = after - before;
    audit.allocs_per_frame =
        static_cast<double>(audit.allocations) / static_cast<double>(kWindow);
  }
  return audit;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  auto flags = bench::StandardFlags::parse(cli);
  std::size_t replicas =
      static_cast<std::size_t>(cli.get_int("replicas", 0));
  const auto streams = static_cast<std::size_t>(cli.get_int("streams", 4));
  const double deadline_ms = cli.get_double("deadline_ms", 3.0);
  const auto max_batch = static_cast<std::size_t>(cli.get_int("max_batch", 4));
  const auto queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue_capacity", 64));
  const std::string out_path = cli.get_string("out", "BENCH_serve.json");
  cli.check_unknown();
  flags.apply_threads();

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  if (replicas == 0) replicas = hw;

  bench::print_header("serving gateway under open-loop Poisson load",
                      "one 320 fps / 3 ms stream per node (paper SVI); here: "
                      "sharded replicas + admission control + micro-batching");

  // Deployed 16-bit U-Net firmware (cached pretrained weights); every
  // replica gets its own copy. --seed drives the load generator and eval
  // frames, not the model, so runs stay cache-warm.
  const bench::DeployedUnet unet;
  const auto firmware = unet.deployed_firmware();
  const auto frames = unet.eval_inputs(32, flags.seed + 2);

  // Direct single-threaded inference: the bit-exactness oracle and the
  // single-replica capacity baseline every gate is phrased against.
  const hls::QuantizedModel direct(firmware);
  std::vector<tensor::Tensor> oracle;
  for (const auto& f : frames) oracle.push_back(direct.forward(f));
  std::size_t warm = 0;
  util::Percentiles direct_ms;
  const auto cap0 = Clock::now();
  double cap_elapsed = 0.0;
  while (cap_elapsed < 0.5) {
    const auto f0 = Clock::now();
    (void)direct.forward(frames[warm % frames.size()]);
    direct_ms.add(
        std::chrono::duration<double, std::milli>(Clock::now() - f0).count());
    ++warm;
    cap_elapsed = std::chrono::duration<double>(Clock::now() - cap0).count();
  }
  const double capacity_fps = static_cast<double>(warm) / cap_elapsed;
  const double service_ms = 1e3 / capacity_fps;
  std::cout << "single replica: capacity " << util::Table::fmt(capacity_fps, 0)
            << " fps (" << util::Table::fmt(service_ms, 3)
            << " ms/frame), deadline " << util::Table::fmt(deadline_ms, 1)
            << " ms\n"
            << "direct inference noise floor: p50 "
            << util::Table::fmt(direct_ms.percentile(50.0), 3) << " ms, p99 "
            << util::Table::fmt(direct_ms.percentile(99.0), 3) << " ms, max "
            << util::Table::fmt(direct_ms.percentile(100.0), 3) << " ms\n"
            << "gateway: " << replicas << " replicas, max_batch " << max_batch
            << ", " << streams << " streams, " << hw
            << " hardware threads\n\n";

  serve::GatewayConfig cfg;
  cfg.queue_capacity = queue_capacity;
  cfg.max_batch = max_batch;
  cfg.deadline_ms = deadline_ms;
  cfg.initial_service_est_ms = service_ms;

  const double aggregate_fps = capacity_fps * static_cast<double>(replicas);
  const std::vector<double> sweep_x = {0.5, 1.0, 2.0};
  std::vector<LoadPoint> points;
  util::Table table({"offered x", "offered fps", "admitted", "shed %",
                     "goodput fps", "p50 ms", "p99 ms", "p99.97 ms"});
  for (double x : sweep_x) {
    auto point = run_point(firmware, frames, oracle, cfg, replicas, streams,
                           aggregate_fps * x, x, flags.duration_s,
                           flags.seed + static_cast<std::uint64_t>(x * 100));
    auto& m = point.metrics;
    table.add_row({util::Table::fmt(x, 1), util::Table::fmt(point.offered_fps, 0),
                   std::to_string(m.admitted), util::Table::pct(m.shed_rate(), 1),
                   util::Table::fmt(m.goodput_fps(point.wall_s), 0),
                   util::Table::fmt(m.e2e_samples.total() ? m.e2e_samples.percentile(50.0) : 0.0, 3),
                   util::Table::fmt(point.p99_e2e_ms, 3),
                   util::Table::fmt(m.e2e_samples.total() ? m.e2e_samples.percentile(99.97) : 0.0, 3)});
    points.push_back(std::move(point));
  }
  std::cout << table.to_string() << "\n";

  // ------------------------------------------------------------- gates
  bool ok = true;

  bool exact = true;
  for (const auto& p : points) exact = exact && p.verify.clean();
  std::cout << "gate (a) exactness: "
            << (exact ? "pass (0 lost, 0 duplicated, 0 divergent)" : "FAIL")
            << "\n";
  ok = ok && exact;

  const bool scaling_applicable = hw >= 4 && replicas >= 4;
  bool scaling = true;
  if (scaling_applicable) {
    double best_goodput = 0.0;
    for (const auto& p : points) {
      best_goodput =
          std::max(best_goodput, p.metrics.goodput_fps(p.wall_s));
    }
    scaling = best_goodput >= 3.0 * capacity_fps;
    std::cout << "gate (b) scaling: best goodput "
              << util::Table::fmt(best_goodput, 0) << " fps vs 3x single "
              << util::Table::fmt(3.0 * capacity_fps, 0) << " fps -> "
              << (scaling ? "pass" : "FAIL") << "\n";
    ok = ok && scaling;
  } else {
    std::cout << "gate (b) scaling: skipped (" << hw << " hardware threads, "
              << replicas << " replicas; needs >= 4 of both)\n";
  }

  const auto& overload = points.back();
  const bool sheds = overload.metrics.shed_predicted_late > 0;
  const double direct_p99 = direct_ms.percentile(99.0);
  const double direct_max = direct_ms.percentile(100.0);
  // The absolute 3 ms SLO is only checkable on a host that can itself hold
  // it. The capacity probe cannot decide that: it runs without the load
  // generator, so it systematically misses the sweep-window noise (every
  // generator wakeup preempts the replica on a small host). The honest
  // reference is the sweep's own light-load point — same generator, same
  // machinery, queueing minimal — whose accepted p99 is what this host and
  // gateway deliver when *not* overloaded. The overload claim is then: 2x
  // offered load must not inflate the accepted tail beyond that reference
  // plus bounded gateway slack (admission-bounded wait + worker wakeup).
  // On a quiet host the reference sits well under the deadline and the gate
  // collapses to the absolute SLO.
  const double light_p99 = points.front().p99_e2e_ms;
  constexpr double kGatewaySlackMs = 1.0;
  const double tail_bound_ms =
      std::max(deadline_ms, light_p99 + kGatewaySlackMs);
  const bool absolute_mode = tail_bound_ms <= deadline_ms;
  const bool tail_ok = overload.p99_e2e_ms <= tail_bound_ms;
  std::cout << "gate (c) overload at " << util::Table::fmt(overload.offered_x, 1)
            << "x (" << (absolute_mode ? "absolute" : "relative")
            << " mode): sheds at admission " << (sheds ? "yes" : "NO")
            << ", accepted p99 " << util::Table::fmt(overload.p99_e2e_ms, 3)
            << " ms vs bound " << util::Table::fmt(tail_bound_ms, 3)
            << " ms (deadline " << util::Table::fmt(deadline_ms, 1)
            << " ms, light-load p99 " << util::Table::fmt(light_p99, 3)
            << " ms) -> " << (sheds && tail_ok ? "pass" : "FAIL") << "\n";
  ok = ok && sheds && tail_ok;

  const auto audit = run_alloc_audit(firmware, service_ms);
  bool alloc_ok = true;
  if (audit.counting) {
    alloc_ok = audit.allocations == 0;
    std::cout << "gate (d) steady-state allocations: " << audit.allocations
              << " over " << audit.measured_frames << " frames ("
              << util::Table::fmt(audit.allocs_per_frame, 4)
              << " per frame, warmup " << audit.warmup_frames << ") -> "
              << (alloc_ok ? "pass" : "FAIL") << "\n";
    ok = ok && alloc_ok;
  } else {
    std::cout << "gate (d) steady-state allocations: skipped (sanitizer owns "
                 "the allocator; counters inactive)\n";
  }

  // -------------------------------------------------------------- JSON
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"replicas\": " << replicas << ",\n"
       << "  \"streams\": " << streams << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"deadline_ms\": " << deadline_ms << ",\n"
       << "  \"max_batch\": " << max_batch << ",\n"
       << "  \"queue_capacity\": " << queue_capacity << ",\n"
       << "  \"duration_s\": " << flags.duration_s << ",\n"
       << "  \"seed\": " << flags.seed << ",\n"
       << "  \"single_replica\": {\"capacity_fps\": " << capacity_fps
       << ", \"service_ms\": " << service_ms
       << ", \"direct_p50_ms\": " << direct_ms.percentile(50.0)
       << ", \"direct_p99_ms\": " << direct_p99
       << ", \"direct_max_ms\": " << direct_max << "},\n"
       << "  \"gates\": {\"exactness\": " << (exact ? "\"pass\"" : "\"fail\"")
       << ", \"scaling\": "
       << (scaling_applicable ? (scaling ? "\"pass\"" : "\"fail\"")
                              : "\"skipped\"")
       << ", \"overload\": " << (sheds && tail_ok ? "\"pass\"" : "\"fail\"")
       << ", \"overload_mode\": "
       << (absolute_mode ? "\"absolute\"" : "\"relative\"")
       << ", \"overload_ref_p99_ms\": " << light_p99
       << ", \"overload_bound_ms\": " << tail_bound_ms
       << ", \"allocations\": "
       << (audit.counting ? (alloc_ok ? "\"pass\"" : "\"fail\"")
                          : "\"skipped\"")
       << "},\n"
       << "  \"alloc_phase\": {\"counting\": "
       << (audit.counting ? "true" : "false")
       << ", \"warmup_frames\": " << audit.warmup_frames
       << ", \"measured_frames\": " << audit.measured_frames
       << ", \"allocations\": " << audit.allocations
       << ", \"allocations_per_frame\": " << audit.allocs_per_frame
       << ", \"served\": " << audit.served
       << ", \"queue_full_retries\": " << audit.queue_full_retries << "},\n"
       << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& p = points[i];
    json << "    {\"offered_x\": " << p.offered_x
         << ", \"offered_fps\": " << p.offered_fps
         << ", \"wall_s\": " << p.wall_s
         << ", \"verify\": {\"admitted\": " << p.verify.admitted
         << ", \"answered\": " << p.verify.answered
         << ", \"lost\": " << p.verify.lost
         << ", \"duplicated\": " << p.verify.duplicated
         << ", \"mismatched\": " << p.verify.mismatched << "},\n"
         << "     \"metrics\": " << p.metrics.to_json(p.wall_s) << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}";
  std::ofstream(out_path) << json.str() << "\n";
  std::cout << "\nwrote " << out_path << "\n";

  return ok ? 0 : 1;
}
