#include "cluster_harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "cluster/client.hpp"
#include "cluster/replica_server.hpp"
#include "cluster/router.hpp"
#include "fault/net_chaos.hpp"
#include "net/assembler.hpp"
#include "net/hub.hpp"
#include "serve/backend.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace reads::bench {

tensor::Tensor decode_frame(std::span<const std::uint32_t> readings,
                            const train::Standardizer& standardizer) {
  tensor::Tensor raw({readings.size(), 1});
  auto dst = raw.flat();
  for (std::size_t i = 0; i < readings.size(); ++i) {
    dst[i] = static_cast<float>(net::decode_reading(readings[i]));
  }
  return standardizer.transform(raw);
}

namespace {

cluster::ReplicaServer* g_server = nullptr;
cluster::Router* g_router = nullptr;
extern "C" void on_sigterm(int) {
  if (g_server != nullptr) g_server->request_stop();
  if (g_router != nullptr) g_router->request_stop();
}

int replica_main(util::Cli& cli) {
  cluster::ReplicaServerConfig rcfg;
  rcfg.listen = cluster::Endpoint::parse(
      cli.get_string("replica_listen", "tcp:127.0.0.1:0"));
  rcfg.gateway.deadline_ms = cli.get_double("deadline_ms", 3.0);
  rcfg.gateway.queue_capacity = 64;
  rcfg.gateway.max_batch = 4;
  rcfg.gateway.sharding = serve::ShardPolicy::kByStream;
  cli.check_unknown();

  // The orchestrator warmed the model cache before spawning, so every
  // process loads the same bytes: bit-identical firmware across replicas.
  const DeployedUnet unet;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(
      std::make_unique<serve::QuantizedBackend>(unet.deployed_firmware()));
  const train::Standardizer& standardizer = unet.bundle.standardizer;
  cluster::ReplicaServer server(
      rcfg, std::move(backends),
      [&standardizer](std::span<const std::uint32_t> readings,
                      tensor::Tensor& out) {
        out = decode_frame(readings, standardizer);
      });
  g_server = &server;
  std::signal(SIGTERM, on_sigterm);
  std::cout << "LISTENING " << server.bound().str() << "\n" << std::flush;
  server.run();
  return 0;
}

// --journal makes an incarnation survivable; --net_fault_scenario turns
// this process's own sockets hostile (fault/net_chaos.hpp).
int router_main(util::Cli& cli) {
  cluster::RouterConfig cfg;
  cfg.listen =
      cluster::Endpoint::parse(cli.get_string("listen", "tcp:127.0.0.1:0"));
  std::istringstream replicas(cli.get_string("replicas", ""));  // a,b,...
  for (std::string ep; std::getline(replicas, ep, ',');) {
    cfg.replicas.push_back(ep);
  }
  cfg.journal_path = cli.get_string("journal", "");
  cfg.hard_deadline_ms = cli.get_double("deadline_ms", 3.0);
  const std::string scenario = cli.get_string("net_fault_scenario", "");
  fault::NetScenarioParams np;
  np.seed = static_cast<std::uint64_t>(cli.get_int("net_fault_seed", 7));
  np.ops = static_cast<std::uint64_t>(cli.get_int("net_fault_ops", 300));
  np.sites = static_cast<std::size_t>(cli.get_int("net_fault_sites", 6));
  cli.check_unknown();

  std::optional<fault::NetInjector> injector;
  std::optional<fault::NetChaosGuard> guard;
  if (!scenario.empty()) {
    injector.emplace(fault::NetPlan::scenario(scenario, np), np.seed);
    guard.emplace(*injector);
  }
  cfg.reconnect_attempts = 50;
  cfg.reconnect_backoff_initial_ms = 20.0;
  cfg.reconnect_backoff_max_ms = 200.0;
  cfg.stall_timeout_ms = 1500.0;
  try {
    cluster::Router router(cfg);
    g_router = &router;
    std::signal(SIGTERM, on_sigterm);
    std::cout << "LISTENING " << router.bound().str() << "\n" << std::flush;
    router.run();
  } catch (const std::exception& e) {
    std::cout << "FAILED " << e.what() << "\n" << std::flush;
    return 1;
  }
  return 0;
}

}  // namespace

std::optional<int> run_role(util::Cli& cli) {
  const std::string role = cli.get_string("role", "bench");
  if (role == "replica") return replica_main(cli);
  if (role == "router") return router_main(cli);
  return std::nullopt;
}

TickSet::TickSet(const hls::QuantizedModel& direct,
                 const train::Standardizer& standardizer, std::uint64_t seed) {
  const net::AssemblerParams ap;  // facility defaults: 260 monitors, 7 hubs
  layout = net::hub_layout(ap.monitors, ap.hubs);
  util::Xoshiro256 rng(util::derive_seed(seed, 42));
  enc.resize(16);
  for (auto& counts : enc) {
    counts.resize(ap.monitors);
    for (auto& c : counts) {
      // Paper-plausible BLM magnitudes (105k-120k); at count scale 16 this
      // range round-trips encode/decode/float exactly, which is what makes
      // the whole re-sealed cluster path bit-exact.
      c = net::encode_reading(105000.0 + 15000.0 * rng.uniform());
    }
    oracle.push_back(direct.forward(decode_frame(counts, standardizer)));
  }
}

std::size_t TickSet::frame_of(std::uint64_t stream, std::uint32_t seq) const {
  return static_cast<std::size_t>(stream * 131 + std::uint64_t{seq} * 7) %
         enc.size();
}

std::vector<net::BlmPacket> TickSet::packets_for(std::uint64_t stream,
                                                 std::uint32_t seq) const {
  const auto& counts = enc[frame_of(stream, seq)];
  std::vector<net::BlmPacket> packets(layout.size());
  for (std::size_t h = 0; h < layout.size(); ++h) {
    auto& p = packets[h];
    p.hub_id = static_cast<std::uint8_t>(h);
    p.sequence = seq;
    p.first_monitor = layout[h].first;
    const auto first = counts.begin() + layout[h].first;
    p.readings.assign(first, first + layout[h].second);
    net::seal_packet(p);
  }
  return packets;
}

void Audit::expect(std::uint64_t req_id, std::size_t frame) {
  ledger_.emplace(req_id, TickState{frame, false});
  ++submitted;
}

void Audit::note(const TickSet& ticks, const cluster::Message& msg) {
  const bool is_result = msg.type == cluster::MsgType::kResult;
  if (!is_result && msg.type != cluster::MsgType::kShed) return;  // hellos
  cluster::Result res;
  if (is_result) res = cluster::decode_result(msg.payload);
  auto it = ledger_.find(is_result ? res.id
                                   : cluster::decode_shed(msg.payload).id);
  if (it == ledger_.end() || it->second.terminal) {
    ++duplicated;
    return;
  }
  it->second.terminal = true;
  ++terminal;
  if (!is_result) {
    ++sheds;
    return;
  }
  ++results;
  const auto& want = ticks.oracle[it->second.frame];
  const auto flat = want.flat();
  bool match = res.dims.size() == want.rank() &&
               std::equal(res.data.begin(), res.data.end(), flat.begin(),
                          flat.end());
  for (std::size_t d = 0; match && d < res.dims.size(); ++d) {
    match = res.dims[d] == want.dim(d);
  }
  if (!match) ++mismatched;
}

std::string Audit::summary() const {
  std::ostringstream s;
  s << submitted << " ticks: " << results << " results, " << sheds
    << " sheds, " << lost() << " lost, " << duplicated << " duplicated, "
    << mismatched << " divergent";
  return s.str();
}

std::string Audit::json() const {
  std::ostringstream s;
  s << "{\"submitted\": " << submitted << ", \"results\": " << results
    << ", \"sheds\": " << sheds << ", \"lost\": " << lost()
    << ", \"duplicated\": " << duplicated << ", \"mismatched\": " << mismatched
    << "}";
  return s.str();
}

cluster::ResilientClient& TickRunner::connect(const std::string& endpoint,
                                              std::uint64_t jitter_seed) {
  cluster::ResilientClientConfig cfg;
  cfg.connect_timeout_ms = 500.0;
  cfg.backoff_initial_ms = 5.0;
  cfg.backoff_max_ms = 100.0;
  cfg.jitter_seed = jitter_seed;
  // Resubmission stays exactly-once while the window is inside the router's
  // per-stream dedup window; on a clean wire it only bounds open-loop load.
  cfg.max_unacked = cluster::kDedupWindow - 1;
  return client_.emplace(endpoint, cfg);
}

void TickRunner::submit(std::uint64_t stream, std::uint32_t seq_no) {
  cluster::Submit s;
  s.stream = stream;
  s.req_id = (stream << 32) | seq_no;
  s.slo = static_cast<std::uint8_t>(stream % 4 == 0 ? 0 : 1);
  s.packets = ticks_.packets_for(stream, seq_no);
  audit_.expect(s.req_id, ticks_.frame_of(stream, seq_no));
  // submit() refuses only on a full unacked window; poll until it opens.
  while (!client_->submit(s)) drain(20.0);
}

void TickRunner::submit_round() {
  for (std::uint64_t st = 0; st < streams_; ++st) submit(st, seq);
  ++seq;
}

void TickRunner::rounds(std::size_t n) {
  for (std::size_t r = 0; r < n; ++r) {
    submit_round();
    drain(1.0);
    while (audit_.lost() > streams_ * 4) drain(20.0);
  }
}

void TickRunner::drain(double wait_ms) {
  double budget = wait_ms;
  while (auto msg = client_->poll(budget)) {
    budget = 0.0;
    audit_.note(ticks_, *msg);
  }
}

void TickRunner::drain_all(double timeout_s) {
  const auto t0 = Clock::now();
  while (audit_.lost() > 0 && elapsed_s(t0) < timeout_s) drain(100.0);
}

namespace {

/// Wait for the child's "LISTENING <endpoint>" line, skipping startup
/// chatter; "" when it reports FAILED, dies, or stays silent too long.
std::string await_listening(cluster::ChildProcess& child, double timeout_s) {
  const auto t0 = Clock::now();
  while (elapsed_s(t0) < timeout_s) {
    const std::string line = child.read_line(timeout_s * 1e3);
    if (line.rfind("LISTENING ", 0) == 0) return line.substr(10);
    if (line.rfind("FAILED ", 0) == 0 || (line.empty() && !child.running())) {
      break;
    }
  }
  return {};
}

}  // namespace

Fleet::Fleet(std::string transport, double deadline_ms, std::string listen)
    : transport_(std::move(transport)),
      deadline_ms_(deadline_ms),
      listen_(std::move(listen)),
      journal_(tmp_path(transport_ + ".journal")) {
  ::unlink(journal_.c_str());
}

Fleet::~Fleet() {
  for (const auto& ep : endpoints) {
    if (ep.rfind("uds:", 0) == 0) ::unlink(ep.c_str() + 4);
  }
  const std::string listen = router_listen();
  if (listen.rfind("uds:", 0) == 0) ::unlink(listen.c_str() + 4);
  ::unlink(journal_.c_str());
}

std::string Fleet::tmp_path(const std::string& suffix) const {
  return "/tmp/reads-cluster-" + std::to_string(::getpid()) + "-" + suffix;
}

bool Fleet::spawn_replicas(std::size_t n) {
  std::cout << "[" << transport_ << "] spawning " << n
            << " replica processes...\n";
  for (std::size_t i = 0; i < n; ++i) {
    if (spawn_replica().empty()) {
      std::cout << "[" << transport_ << "] replica " << i
                << " failed to start\n";
      return false;
    }
  }
  return true;
}

std::string Fleet::spawn_replica() {
  const std::string listen =
      transport_ == "uds"
          ? std::string("uds:").append(
                tmp_path(std::to_string(replicas.size()) + ".sock"))
          : "tcp:127.0.0.1:0";
  auto child = cluster::spawn(
      {"/proc/self/exe", "--role=replica", "--replica_listen=" + listen,
       "--deadline_ms=" + std::to_string(deadline_ms_)});
  // The model cache is warm, but firmware compilation takes a moment.
  std::string ep = await_listening(child, 120.0);
  if (ep.empty()) return {};
  replicas.push_back(std::move(child));
  endpoints.push_back(ep);
  return ep;
}

std::string Fleet::router_listen() const {
  if (!listen_.empty()) return listen_;
  return transport_ == "uds"
             ? std::string("uds:").append(tmp_path("router.sock"))
             : "tcp:127.0.0.1:0";
}

bool Fleet::spawn_router(const std::vector<std::string>& extra) {
  std::string reps;
  for (const auto& ep : endpoints) reps += (reps.empty() ? "" : ",") + ep;
  const std::string listen =
      router_endpoint.empty() ? router_listen() : router_endpoint;
  std::vector<std::string> argv = {
      "/proc/self/exe", "--role=router", "--listen=" + listen,
      "--replicas=" + reps, "--journal=" + journal_,
      "--deadline_ms=" + std::to_string(deadline_ms_)};
  argv.insert(argv.end(), extra.begin(), extra.end());
  router.emplace(cluster::spawn(argv));
  const std::string ep = await_listening(*router, 30.0);
  if (ep.empty()) return false;
  router_endpoint = ep;
  return true;
}

bool Fleet::shutdown() {
  bool clean = !router || router->terminate(15000.0);
  for (auto& c : replicas) clean = c.terminate(10000.0) && clean;
  return clean;
}

std::string add_counters(
    const std::string& stats_json,
    std::initializer_list<std::pair<const char*, std::uint64_t*>> counters) {
  if (stats_json.empty()) return "stats request timed out";
  try {
    const util::JsonScan scan(stats_json, "stats");
    for (const auto& [key, slot] : counters) *slot += scan.count(key);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

std::string stats_of(const std::string& endpoint) {
  try {
    return cluster::ClusterClient(endpoint, cluster::Role::kAdmin)
        .stats(10000.0);
  } catch (const std::exception&) {
    return {};  // unreachable reads like a timeout
  }
}

std::vector<std::string> transports(const StandardFlags& flags) {
  if (flags.transport == "both") return {"tcp", "uds"};
  return {flags.transport};
}

int finish(const std::string& out_path, const std::string& json, bool ok) {
  std::ofstream(out_path) << json << "\n";
  std::cout << "wrote " << out_path << "\n";
  std::cout << "overall: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace reads::bench
