// Network-chaos cluster failover bench: the serving tier of bench_cluster
// under a hostile wire and dying processes, audited bit-for-bit against
// single-process direct inference.
//
//   ./bench_chaos_cluster [--transport=both|tcp|uds] [--streams=4]
//                         [--deadline_ms=3] [--quick] [--seed=7]
//                         [--out=BENCH_chaos_cluster.json] [--help]
//
// The router runs as a CHILD process here (unlike bench_cluster) so it can
// be SIGKILLed and restarted on the same endpoint. Each transport run
// drives four phases, all against one cumulative exactness ledger:
//
//   1. Wire-chaos sweep — every fault::NetPlan scenario (torn, short_write,
//      eagain, corrupt, refuse, stall) is injected into the orchestrator's
//      own sockets via fault::NetInjector while a ResilientClient submits
//      ticks; torn streams force reconnect + resubmission, corrupt bytes
//      are caught by the envelope CRC, refusals exercise backoff + jitter.
//   2. Replica SIGKILL — a replica child dies mid-traffic; the router
//      redispatches its outstanding jobs (bit-identical re-execution).
//   3. Router SIGKILL + restart — the router child dies mid-traffic and is
//      respawned on the same endpoint with the same WAL journal; it
//      recovers membership + dedup state, the client auto-resumes via
//      reconnect + idempotent resubmission, and the time from kill to the
//      first post-restart result is reported as recovery latency.
//   4. Router-side net_storm — the restarted router is cycled once more
//      with --net_fault_scenario=net_storm so chaos also lands on the
//      router<->replica legs and the router's own client writes.
//
// The replica and router roles, tick oracle, audit, tick runner and
// process fleet are shared with bench_cluster (cluster_harness.hpp).
//
// Gates, per transport: exactness (0 lost, 0 duplicated, 0 bit-divergent
// accepted frames, results > 0 — at-least-once wire, exactly-once effect),
// chaos actually fired, the client reconnected at least once, the restarted
// router recovered journaled membership, post-restart results flowed, and
// every child exited cleanly.
//
// Writes BENCH_chaos_cluster.json: per-transport verify counts, per-
// scenario injected-fault counts, failover timings (recovery latency),
// client resilience counters and the final router stats JSON.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "cluster/client.hpp"
#include "cluster_harness.hpp"
#include "fault/net_chaos.hpp"
#include "fault/net_plan.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace reads;
using bench::Clock;
using bench::elapsed_s;

// ---- orchestrator: one transport run -------------------------------------

struct ScenarioStat {
  std::string name;
  std::uint64_t injected = 0;
  std::uint64_t reconnects = 0;     ///< client reconnects during it
  std::uint64_t resubmissions = 0;  ///< client resubmissions during it
};

struct RunOutcome {
  std::string transport;
  std::string endpoint;
  double wall_s = 0.0;
  bench::Audit audit;
  std::vector<ScenarioStat> scenarios;
  std::uint64_t chaos_injected = 0;  ///< sweep total, orchestrator side
  std::uint64_t client_reconnects = 0;
  std::uint64_t client_resubmissions = 0;
  double recovery_ms = 0.0;  ///< router SIGKILL -> first post-restart result
  std::size_t post_restart_results = 0;
  std::uint64_t journal_recovered_nodes = 0;
  std::uint64_t journal_recovered_replies = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t inflight_rebinds = 0;
  std::uint64_t malformed_disconnects = 0;
  std::uint64_t redispatched = 0;
  std::uint64_t crashes = 0;
  std::string stats_error;  ///< first unreadable router stats reply
  bool storm_ran = false;
  bool children_clean = true;
  std::string router_stats;

  bool all_scenarios_fired() const {
    return !scenarios.empty() &&
           std::all_of(scenarios.begin(), scenarios.end(),
                       [](const ScenarioStat& s) { return s.injected > 0; });
  }
  bool recovered() const {
    return stats_error.empty() && journal_recovered_nodes >= 1 &&
           post_restart_results > 0;
  }
  bool pass() const {
    return audit.exact() && all_scenarios_fired() && client_reconnects > 0 &&
           recovered() && children_clean;
  }
};

struct RunParams {
  std::string transport;
  std::size_t streams = 4;
  std::size_t rounds_scenario = 6;
  std::size_t rounds_kill = 8;
  std::size_t rounds_storm = 6;
  double deadline_ms = 3.0;
  std::uint64_t seed = 7;
};

/// Router counters reset with each incarnation; scrape and accumulate at
/// the end of every incarnation so the run total is complete. The first
/// unreadable reply fails the recovery gate.
void accumulate_stats(RunOutcome& out, const std::string& js,
                      bool journal = false) {
  std::string err = bench::add_counters(
      js, {{"dedup_hits", &out.dedup_hits},
           {"inflight_rebinds", &out.inflight_rebinds},
           {"malformed_disconnects", &out.malformed_disconnects},
           {"redispatched_jobs", &out.redispatched},
           {"replica_crashes", &out.crashes}});
  if (err.empty() && journal) {
    err = bench::add_counters(
        js, {{"journal_recovered_nodes", &out.journal_recovered_nodes},
             {"journal_recovered_replies", &out.journal_recovered_replies}});
  }
  if (out.stats_error.empty()) out.stats_error = err;
}

/// Reconnects of one phase client; its first connect is not a reconnect.
std::uint64_t reconnects(const cluster::ResilientClient& client) {
  return client.reconnects() > 0 ? client.reconnects() - 1 : 0;
}

void add_client_counts(RunOutcome& out, cluster::ResilientClient& client) {
  out.client_reconnects += reconnects(client);
  out.client_resubmissions += client.resubmissions();
}

RunOutcome run_transport(const RunParams& rp, const bench::TickSet& ts) {
  RunOutcome out;
  out.transport = rp.transport;
  const auto t0 = Clock::now();
  const std::string tag = "[" + rp.transport + "] ";

  bench::Fleet fleet(rp.transport, rp.deadline_ms);
  if (!fleet.spawn_replicas(2) || !fleet.spawn_router()) {
    std::cout << tag << "cluster failed to start\n";
    out.children_clean = false;
    return out;
  }
  out.endpoint = fleet.router_endpoint;
  bench::TickRunner runner(ts, out.audit, rp.streams);

  // Phase 1: wire-chaos sweep, one fresh injector + client per scenario so
  // site numbering (= connection open order) restarts at 0 every time and
  // the campaign stays deterministic.
  std::cout << tag << "phase 1: wire-chaos sweep\n";
  for (const char* name :
       {"torn", "short_write", "eagain", "corrupt", "refuse", "stall"}) {
    fault::NetScenarioParams np;
    np.seed = util::derive_seed(rp.seed, std::hash<std::string>{}(name));
    // The op horizon must match what the client actually performs, or the
    // scheduled windows land beyond the campaign: ~1 write op per submit.
    np.ops = rp.rounds_scenario * rp.streams;
    np.sites = 4;
    fault::NetInjector injector(fault::NetPlan::scenario(name, np), np.seed);
    auto& client = runner.connect(out.endpoint, np.seed);
    {
      fault::NetChaosGuard guard(injector);
      runner.rounds(rp.rounds_scenario);
    }
    // Tap removed: the tail drains over a clean wire.
    runner.drain_all(60.0);
    const ScenarioStat st{name, injector.injected_total(), reconnects(client),
                          client.resubmissions()};
    out.chaos_injected += st.injected;
    add_client_counts(out, client);
    out.scenarios.push_back(st);
    std::cout << "  " << name << ": " << st.injected << " faults injected, "
              << st.reconnects << " reconnects, " << st.resubmissions
              << " resubmissions, pending " << out.audit.lost() << "\n";
  }

  // Phase 2: replica SIGKILL mid-traffic; redispatch must stay invisible.
  std::cout << tag << "phase 2: replica SIGKILL\n";
  runner.connect(out.endpoint, rp.seed);
  runner.rounds(2);
  fleet.replicas.back().kill_hard();
  runner.rounds(rp.rounds_kill);
  runner.drain_all(60.0);
  // First incarnation's counters, before the SIGKILL wipes them.
  accumulate_stats(out, bench::stats_of(out.endpoint));

  // Phase 3: router SIGKILL + restart on the same endpoint + journal. One
  // round is submitted and deliberately NOT drained first, so the kill
  // lands with ticks in flight — the restart serves answered ones from the
  // recovered dedup window and re-executes the rest on resubmission.
  std::cout << tag << "phase 3: router SIGKILL + restart\n";
  {
    auto& client = runner.connect(out.endpoint, rp.seed);
    runner.rounds(2);
    runner.submit_round();
    fleet.router->kill_hard();
    const auto kill_t = Clock::now();
    if (!fleet.spawn_router()) {
      std::cout << tag << "router failed to RESTART\n";
      out.children_clean = false;
      return out;
    }
    const std::size_t before = out.audit.results;
    while (out.audit.results == before && elapsed_s(kill_t) < 60.0) {
      runner.drain(50.0);
    }
    out.recovery_ms = elapsed_s(kill_t) * 1e3;
    runner.rounds(rp.rounds_kill);
    runner.drain_all(60.0);
    out.post_restart_results = out.audit.results - before;
    add_client_counts(out, client);
  }
  // Journal recovery + incarnation counters of the restarted router.
  accumulate_stats(out, bench::stats_of(out.endpoint), /*journal=*/true);

  // Phase 4: cycle the router once more with net_storm on ITS side of the
  // wire, so chaos also lands on the router<->replica legs.
  std::cout << tag << "phase 4: router-side net_storm\n";
  if (!fleet.router->terminate(10000.0)) out.children_clean = false;
  const std::uint64_t storm_ops = rp.rounds_storm * rp.streams * 2;
  if (!fleet.spawn_router(
          {"--net_fault_scenario=net_storm",
           "--net_fault_seed=" +
               std::to_string(util::derive_seed(rp.seed, 0x570)),
           "--net_fault_ops=" + std::to_string(storm_ops),
           "--net_fault_sites=6"})) {
    std::cout << tag << "router failed storm restart\n";
    out.children_clean = false;
    return out;
  }
  out.storm_ran = true;
  auto& storm_client = runner.connect(out.endpoint, rp.seed);
  runner.rounds(rp.rounds_storm);
  runner.drain_all(60.0);
  add_client_counts(out, storm_client);

  // Final stats + graceful teardown.
  out.router_stats = bench::stats_of(out.endpoint);
  accumulate_stats(out, out.router_stats);
  cluster::ClusterClient(out.endpoint, cluster::Role::kAdmin).shutdown_router();
  if (!fleet.shutdown()) out.children_clean = false;
  out.wall_s = elapsed_s(t0);
  return out;
}

void print_outcome(const RunOutcome& o) {
  const std::string tag = "[" + o.transport + "] ";
  std::cout << tag << o.audit.summary() << "\n"
            << tag << "chaos: " << o.chaos_injected
            << " faults injected client-side, " << o.client_reconnects
            << " reconnects, " << o.client_resubmissions << " resubmissions, "
            << o.dedup_hits << " dedup hits, " << o.inflight_rebinds
            << " in-flight rebinds, " << o.malformed_disconnects
            << " malformed disconnects\n"
            << tag << "failover: " << o.crashes << " replica crashes, "
            << o.redispatched << " jobs redispatched, router recovery "
            << static_cast<int>(o.recovery_ms) << " ms ("
            << o.journal_recovered_nodes << " nodes, "
            << o.journal_recovered_replies << " replies from journal), "
            << o.post_restart_results << " post-restart results\n";
  if (!o.stats_error.empty()) {
    std::cout << tag << "router stats: " << o.stats_error << "\n";
  }
  std::cout << tag << "gates: exactness "
            << (o.audit.exact() ? "pass" : "FAIL") << ", chaos-fired "
            << (o.all_scenarios_fired() ? "pass" : "FAIL") << ", reconnected "
            << (o.client_reconnects > 0 ? "pass" : "FAIL") << ", recovery "
            << (o.recovered() ? "pass" : "FAIL") << ", shutdown "
            << (o.children_clean ? "pass" : "FAIL") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (const auto rc = bench::run_role(cli)) return *rc;

  if (cli.get_bool("help", false)) {
    std::cout
        << "bench_chaos_cluster: network chaos + cluster failover bench\n\n"
        << bench::StandardFlags::help()
        << "bench_chaos_cluster flags:\n"
           "  --streams=N          client streams (default 4)\n"
           "  --deadline_ms=D      hard-real-time SLO budget (default 3)\n"
           "  --quick              short phases (CI mode)\n"
           "  --out=PATH           JSON artifact (BENCH_chaos_cluster.json)\n"
           "  --role=replica       internal: run as a replica server\n"
           "  --role=router        internal: run as the router process\n";
    return 0;
  }

  auto flags = bench::StandardFlags::parse(cli);
  const bool quick = cli.get_bool("quick", false);
  const double deadline_ms = cli.get_double("deadline_ms", 3.0);
  const auto streams = static_cast<std::size_t>(cli.get_int("streams", 4));
  const std::string out_path =
      cli.get_string("out", "BENCH_chaos_cluster.json");
  cli.check_unknown();
  flags.apply_threads();

  bench::print_header(
      "network chaos + cluster failover",
      "one 3 ms stream per node (paper SVI) served through a router that "
      "must survive torn sockets, slow peers, and its own death");

  // Warm the model cache + build the oracle before spawning children.
  const bench::DeployedUnet unet;
  const hls::QuantizedModel direct(unet.deployed_firmware());
  const bench::TickSet ticks(direct, unet.bundle.standardizer, flags.seed);

  RunParams rp;
  rp.streams = streams;
  rp.rounds_scenario = quick ? 6 : 14;
  rp.rounds_kill = quick ? 8 : 16;
  rp.rounds_storm = quick ? 6 : 14;
  rp.deadline_ms = deadline_ms;
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
       << "  \"bench\": \"chaos_cluster\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"streams\": " << streams << ",\n"
       << "  \"hard_deadline_ms\": " << deadline_ms << ",\n"
       << "  \"seed\": " << flags.seed << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto& o = runs[i];
    json << "    {\"transport\": " << util::json_quote(o.transport)
         << ", \"endpoint\": " << util::json_quote(o.endpoint)
         << ", \"wall_s\": " << util::json_double(o.wall_s) << ",\n"
         << "     \"verify\": " << o.audit.json() << ",\n"
         << "     \"scenarios\": [";
    for (std::size_t s = 0; s < o.scenarios.size(); ++s) {
      const auto& sc = o.scenarios[s];
      json << (s > 0 ? ", " : "")
           << "{\"name\": " << util::json_quote(sc.name)
           << ", \"injected\": " << sc.injected
           << ", \"reconnects\": " << sc.reconnects
           << ", \"resubmissions\": " << sc.resubmissions << "}";
    }
    json << "],\n"
         << "     \"resilience\": {\"client_reconnects\": "
         << o.client_reconnects
         << ", \"client_resubmissions\": " << o.client_resubmissions
         << ", \"dedup_hits\": " << o.dedup_hits
         << ", \"inflight_rebinds\": " << o.inflight_rebinds
         << ", \"malformed_disconnects\": " << o.malformed_disconnects
         << "},\n"
         << "     \"failover\": {\"replica_crashes\": " << o.crashes
         << ", \"redispatched_jobs\": " << o.redispatched
         << ", \"recovery_ms\": " << util::json_double(o.recovery_ms)
         << ", \"post_restart_results\": " << o.post_restart_results
         << ", \"journal_recovered_nodes\": " << o.journal_recovered_nodes
         << ", \"journal_recovered_replies\": "
         << o.journal_recovered_replies << ", \"storm_ran\": "
         << (o.storm_ran ? "true" : "false") << "},\n"
         << "     \"gates\": {\"exactness\": " << bench::gate(o.audit.exact())
         << ", \"chaos_fired\": " << bench::gate(o.all_scenarios_fired())
         << ", \"reconnected\": " << bench::gate(o.client_reconnects > 0)
         << ", \"recovery\": " << bench::gate(o.recovered())
         << ", \"shutdown\": " << bench::gate(o.children_clean) << "},\n"
         << "     \"router_stats\": "
         << (o.router_stats.empty() ? "null" : o.router_stats) << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}";
  return bench::finish(out_path, json.str(), ok);
}
