// Multi-process cluster exactness bench: a router front-ending N
// replica-server child processes (real fork/exec, real sockets) under
// client load, with live resharding and graceful shutdown, audited
// bit-for-bit against single-process direct inference.
//
//   ./bench_cluster [--transport=both|tcp|uds] [--replica_procs=0 (default)]
//                   [--listen=<ep>] [--streams=6] [--deadline_ms=3]
//                   [--quick] [--duration_s=2] [--seed=7] [--threads=0]
//                   [--out=BENCH_cluster.json] [--help]
//
// Each transport run spawns real replica processes (this binary re-executed
// with --role=replica), routes client ticks (seven raw hub packets each)
// through an in-process router, and gates on:
//   (a) exactness: every submitted tick gets exactly one terminal reply
//       (result or shed) and every result's output is bit-identical to
//       direct single-process inference on the same frame — zero lost,
//       duplicated, or divergent accepted frames;
//   (b) live resharding: a replica process is added and another removed
//       mid-traffic; the removal must drain exactly-once (deferred ack) and
//       move pinned streams without violating gate (a);
//   (c) graceful shutdown: the router drains close-then-drain and every
//       replica child exits cleanly on SIGTERM;
//   (d) scaling: with >= 4 hardware threads and >= 4 replica processes,
//       aggregate goodput must reach 3x a single replica's capacity
//       (skipped and reported as such on smaller hosts).
// Full (non --quick) runs also crash-inject: one replica child is
// SIGKILLed mid-traffic and gate (a) must still hold through the
// redispatch (bit-identical re-execution makes the crash invisible).
// The replica role, tick oracle, audit, tick runner and process fleet are
// shared with bench_chaos_cluster (cluster_harness.hpp).
//
// Writes BENCH_cluster.json: per-transport verify counts, router stats
// (cluster counters + admission metrics), and the N replica-process
// MetricsSnapshots merged into one cluster-wide snapshot via
// serve::MetricsSnapshot::merge (exact merged percentiles from retained
// samples).
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/router.hpp"
#include "cluster_harness.hpp"
#include "serve/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace reads;
using bench::Clock;
using bench::elapsed_s;

struct RunOutcome {
  std::string transport;
  std::string endpoint;
  double wall_s = 0.0;
  bench::Audit audit;
  std::uint64_t added_node = 0;
  bool remove_ok = false;
  std::uint64_t resharded = 0;
  std::uint64_t redispatched = 0;
  std::uint64_t crashes = 0;
  std::string stats_error;  ///< router counters unreadable
  bool children_clean = true;
  bool crash_phase = false;
  bool scaling_applicable = false;
  double goodput_fps = 0.0;
  double scaling_bound_fps = 0.0;
  std::string router_stats;
  serve::MetricsSnapshot merged;
  std::size_t replica_snapshots = 0;

  bool resharding() const {
    return stats_error.empty() && added_node != 0 && remove_ok &&
           resharded >= 1;
  }
  bool scaling_pass() const {
    return !scaling_applicable || goodput_fps >= scaling_bound_fps;
  }
  bool pass() const {
    return audit.exact() && resharding() && children_clean && scaling_pass();
  }
};

struct RunParams {
  std::string transport;
  std::string listen;  ///< empty = auto
  std::size_t replica_procs = 2;
  std::size_t streams = 4;
  std::size_t rounds_steady = 8;
  std::size_t rounds_reshard = 8;
  std::size_t rounds_crash = 0;  ///< 0 = no crash injection
  double deadline_ms = 3.0;
  double capacity_fps = 0.0;
  double scaling_duration_s = 2.0;
  bool scaling_applicable = false;
  std::uint64_t seed = 7;
};

RunOutcome run_transport(const RunParams& rp, const bench::TickSet& ts) {
  RunOutcome out;
  out.transport = rp.transport;
  const auto t0 = Clock::now();

  bench::Fleet fleet(rp.transport, rp.deadline_ms, rp.listen);
  if (!fleet.spawn_replicas(rp.replica_procs)) {
    out.children_clean = false;
    return out;
  }

  // The router stays in-process on the default RouterConfig; only the
  // chaos bench needs a router child it can SIGKILL.
  cluster::RouterConfig cfg;
  cfg.listen = cluster::Endpoint::parse(fleet.router_listen());
  cfg.replicas = fleet.endpoints;
  cfg.hard_deadline_ms = rp.deadline_ms;
  cluster::Router router(cfg);
  out.endpoint = router.bound().str();
  std::thread router_thread([&router] { router.run(); });

  {
    bench::TickRunner runner(ts, out.audit, rp.streams);
    runner.connect(out.endpoint, rp.seed);

    // Phase 1: steady traffic across the initial fleet.
    runner.rounds(rp.rounds_steady);

    // Phase 2: live resharding under traffic — grow the fleet by one
    // process, then drain node 1 out while the client keeps submitting.
    const std::string grown = fleet.spawn_replica();
    if (!grown.empty()) out.added_node = router.add_replica(grown);
    std::thread remover(
        [&router, &out] { out.remove_ok = router.remove_replica(1); });
    runner.rounds(rp.rounds_reshard);
    remover.join();

    // Phase 3 (full mode): crash a replica process mid-traffic; the
    // redispatch must stay invisible to the exactness audit.
    if (rp.rounds_crash > 0 && fleet.replicas.size() > 2) {
      out.crash_phase = true;
      fleet.replicas[1].kill_hard();
      runner.rounds(rp.rounds_crash);
    }

    // Phase 4 (capable hosts): open-loop load for the scaling gate; replies
    // are audited whenever the client's unacked window fills.
    if (rp.scaling_applicable) {
      out.scaling_applicable = true;
      out.scaling_bound_fps = 3.0 * rp.capacity_fps;
      const double target_fps =
          1.5 * rp.capacity_fps * static_cast<double>(rp.replica_procs);
      util::Xoshiro256 rng(util::derive_seed(rp.seed, 77));
      const std::size_t before = out.audit.results;
      const auto s0 = Clock::now();
      auto next = s0;
      while (elapsed_s(s0) < rp.scaling_duration_s) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(rng.exponential(target_fps)));
        std::this_thread::sleep_until(next);
        runner.submit(rng.uniform_int(rp.streams), runner.seq++);
      }
      runner.drain_all(60.0);
      out.goodput_fps =
          static_cast<double>(out.audit.results - before) / elapsed_s(s0);
    }

    // Drain every pending tick to a terminal reply.
    runner.drain_all(120.0);

    // Stats: router view + every surviving replica process's own
    // MetricsSnapshot, merged into one cluster-wide snapshot.
    out.router_stats = router.stats_json();
    out.stats_error = bench::add_counters(
        out.router_stats, {{"resharded_streams", &out.resharded},
                           {"redispatched_jobs", &out.redispatched},
                           {"replica_crashes", &out.crashes}});
    for (std::size_t i = 0; i < fleet.endpoints.size(); ++i) {
      if (!fleet.replicas[i].running()) continue;
      try {
        const std::string js = bench::stats_of(fleet.endpoints[i]);
        if (js.empty()) continue;
        out.merged.merge(serve::MetricsSnapshot::from_json(js));
        ++out.replica_snapshots;
      } catch (const std::exception&) {
        // a crashed/unreachable replica simply contributes no snapshot
      }
    }
  }

  // Graceful shutdown: router close-then-drain, then SIGTERM each child.
  router.request_stop();
  router_thread.join();
  out.children_clean = fleet.shutdown();
  out.wall_s = elapsed_s(t0);
  return out;
}

void print_outcome(const RunOutcome& o) {
  const std::string tag = "[" + o.transport + "] ";
  std::cout << tag << o.audit.summary() << "\n"
            << tag << "reshard: added node " << o.added_node
            << ", removed node 1 (" << (o.remove_ok ? "drained" : "FAILED")
            << "), " << o.resharded << " streams moved, " << o.redispatched
            << " jobs redispatched, " << o.crashes << " crashes\n";
  if (!o.stats_error.empty()) {
    std::cout << tag << "router stats: " << o.stats_error << "\n";
  }
  std::cout << tag << "gates: exactness "
            << (o.audit.exact() ? "pass" : "FAIL") << ", resharding "
            << (o.resharding() ? "pass" : "FAIL") << ", shutdown "
            << (o.children_clean ? "pass" : "FAIL") << ", scaling "
            << (o.scaling_applicable ? (o.scaling_pass() ? "pass" : "FAIL")
                                     : "skipped")
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (const auto rc = bench::run_role(cli)) return *rc;

  if (cli.get_bool("help", false)) {
    std::cout
        << "bench_cluster: multi-process serving tier exactness bench\n\n"
        << bench::StandardFlags::help()
        << "bench_cluster flags:\n"
           "  --streams=N          client streams (default 6, quick 4)\n"
           "  --deadline_ms=D      hard-real-time SLO budget (default 3)\n"
           "  --quick              small fleet + short phases (CI mode)\n"
           "  --out=PATH           JSON artifact (BENCH_cluster.json)\n"
           "  --role=replica       internal: run as a replica server\n"
           "  --role=router        internal: run as a router process\n";
    return 0;
  }

  auto flags = bench::StandardFlags::parse(cli);
  const bool quick = cli.get_bool("quick", false);
  const double deadline_ms = cli.get_double("deadline_ms", 3.0);
  auto streams = static_cast<std::size_t>(
      cli.get_int("streams", quick ? 4 : 6));
  const std::string out_path = cli.get_string("out", "BENCH_cluster.json");
  cli.check_unknown();
  flags.apply_threads();

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::size_t replica_procs = flags.replica_procs;
  if (replica_procs == 0) replica_procs = quick ? 2 : 3;

  bench::print_header(
      "multi-process cluster serving tier",
      "one 3 ms stream per node (paper SVI), scaled out: router + " +
          std::to_string(replica_procs) + " replica processes");

  // Warm the model cache and build the oracle BEFORE spawning anything, so
  // the children only ever load cached weights (same bytes everywhere).
  const bench::DeployedUnet unet;
  const hls::QuantizedModel direct(unet.deployed_firmware());
  const bench::TickSet ticks(direct, unet.bundle.standardizer, flags.seed);

  // Single-replica capacity: the scaling gate's yardstick.
  std::size_t warm = 0;
  const auto cap0 = Clock::now();
  const tensor::Tensor probe =
      bench::decode_frame(ticks.enc[0], unet.bundle.standardizer);
  while (elapsed_s(cap0) < 0.3) {
    (void)direct.forward(probe);
    ++warm;
  }
  const double capacity_fps = static_cast<double>(warm) / elapsed_s(cap0);
  const bool scaling_applicable = hw >= 4 && replica_procs >= 4;
  std::cout << "single replica capacity: " << static_cast<int>(capacity_fps)
            << " fps; " << hw << " hardware threads; scaling gate "
            << (scaling_applicable ? "armed" : "skipped (needs >= 4 threads "
                                              "and >= 4 replica processes)")
            << "\n\n";

  RunParams rp;
  rp.listen = flags.listen;
  rp.replica_procs = replica_procs;
  rp.streams = streams;
  rp.rounds_steady = quick ? 8 : 20;
  rp.rounds_reshard = quick ? 8 : 20;
  rp.rounds_crash = quick ? 0 : 8;
  rp.deadline_ms = deadline_ms;
  rp.capacity_fps = capacity_fps;
  rp.scaling_duration_s = flags.duration_s;
  rp.scaling_applicable = scaling_applicable;
  rp.seed = flags.seed;

  std::vector<RunOutcome> runs;
  bool ok = true;
  for (const auto& t : bench::transports(flags)) {
    rp.transport = t;
    runs.push_back(run_transport(rp, ticks));
    print_outcome(runs.back());
    std::cout << "\n";
    ok = ok && runs.back().pass();
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"cluster\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"replica_procs\": " << replica_procs << ",\n"
       << "  \"streams\": " << streams << ",\n"
       << "  \"hard_deadline_ms\": " << deadline_ms << ",\n"
       << "  \"seed\": " << flags.seed << ",\n"
       << "  \"single_replica\": {\"capacity_fps\": "
       << util::json_double(capacity_fps) << "},\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto& o = runs[i];
    json << "    {\"transport\": " << util::json_quote(o.transport)
         << ", \"endpoint\": " << util::json_quote(o.endpoint)
         << ", \"wall_s\": " << util::json_double(o.wall_s) << ",\n"
         << "     \"verify\": " << o.audit.json() << ",\n"
         << "     \"reshard\": {\"added_node\": " << o.added_node
         << ", \"removed_node\": 1, \"remove_ok\": "
         << (o.remove_ok ? "true" : "false")
         << ", \"resharded_streams\": " << o.resharded
         << ", \"redispatched_jobs\": " << o.redispatched
         << ", \"replica_crashes\": " << o.crashes << ", \"crash_phase\": "
         << (o.crash_phase ? "true" : "false") << "},\n"
         << "     \"gates\": {\"exactness\": " << bench::gate(o.audit.exact())
         << ", \"resharding\": " << bench::gate(o.resharding())
         << ", \"shutdown\": " << bench::gate(o.children_clean)
         << ", \"scaling\": "
         << (o.scaling_applicable ? bench::gate(o.scaling_pass())
                                  : "\"skipped\"")
         << "},\n"
         << "     \"scaling\": {\"applicable\": "
         << (o.scaling_applicable ? "true" : "false")
         << ", \"goodput_fps\": " << util::json_double(o.goodput_fps)
         << ", \"bound_fps\": " << util::json_double(o.scaling_bound_fps)
         << "},\n"
         << "     \"router_stats\": "
         << (o.router_stats.empty() ? "null" : o.router_stats) << ",\n"
         << "     \"replica_snapshots\": " << o.replica_snapshots << ",\n"
         << "     \"replicas_merged\": " << o.merged.to_json(o.wall_s)
         << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}";
  return bench::finish(out_path, json.str(), ok);
}
