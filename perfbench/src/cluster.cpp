// cluster_uds: the same tick stream through the multi-process tier.
//
//   wire bytes -> net::PacketDecoder -> cluster::ClusterClient::submit
//   -> cluster::Router (assemble, admit, route) over uds:
//   -> ReplicaServer child (reading decode + standardize, Gateway,
//      TimedBackend(QuantizedBackend)) -> Router -> client
//
// One thread paces, submits and reads the replies: between ticks it waits
// in ClusterClient::poll and stamps each reply as poll returns it. poll()
// sleeps in whole milliseconds, longer than the gap between ticks, so a
// timer signal aimed at this thread interrupts it at each due time (see
// DueWake); no other thread touches the client.
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/client.hpp"
#include "cluster/proc.hpp"
#include "cluster/replica_server.hpp"
#include "cluster/router.hpp"
#include "host.hpp"
#include "net/assembler.hpp"
#include "net/wire.hpp"
#include "serve/metrics.hpp"

namespace perfbench {

namespace {

namespace rc = reads::cluster;
namespace rs = reads::serve;
namespace rn = reads::net;

// ---- replica child -------------------------------------------------------

rc::ReplicaServer* g_server = nullptr;
extern "C" void on_sigterm(int) {
  if (g_server != nullptr) g_server->request_stop();
}

std::string flag(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  throw std::invalid_argument("replica: missing --" + key);
}

// ---- stats JSON helpers --------------------------------------------------

/// The balanced {...} value of the first `"key":` ("" if absent).
std::string json_object(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return {};
  const auto open = json.find('{', pos);
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) return json.substr(open, i - open + 1);
  }
  return {};
}

/// Every numeric value of `"key":` in `json`, in order.
std::vector<double> json_numbers(const std::string& json,
                                 const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (auto pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    out.push_back(std::strtod(json.c_str() + pos + needle.size(), nullptr));
  }
  return out;
}

double json_number(const std::string& json, const std::string& key) {
  const auto v = json_numbers(json, key);
  return v.empty() ? 0.0 : v.front();
}

// ---- fleet ---------------------------------------------------------------

/// Router + replica children + the generator's connection. Holds a thread
/// that uses the router, so it is neither copied nor moved.
class Fleet {
 public:
  Fleet(const Args& args, int generation) {
    const std::string tag = std::to_string(::getpid()) + "-g" +
                            std::to_string(generation);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const std::string stem = args.out_dir + "/r" + std::to_string(r) + "-" + tag;
      sockets_.push_back(stem + ".sock");
      span_files_.push_back(stem + ".spans");
      ::unlink(sockets_.back().c_str());
      children_.push_back(rc::spawn(
          {"/proc/self/exe", "--role=replica", "--listen=uds:" + sockets_.back(),
           "--trace=" + std::string(args.trace ? "1" : "0"),
           "--spans=" + span_files_.back()}));
    }
    // The children load the model and compile firmware concurrently; wait
    // for every LISTENING handshake.
    for (auto& child : children_) {
      std::string ep;
      const std::int64_t give_up = now_ns() + 120'000'000'000;
      while (ep.empty() && now_ns() < give_up) {
        const std::string line = child.read_line(1000.0);
        if (line.rfind("LISTENING ", 0) == 0) ep = line.substr(10);
        if (line.empty() && !child.running()) break;
      }
      if (ep.empty()) throw std::runtime_error("replica child failed to start");
      endpoints_.push_back(ep);
    }
    rc::RouterConfig cfg;
    router_socket_ = args.out_dir + "/router-" + tag + ".sock";
    ::unlink(router_socket_.c_str());
    cfg.listen = rc::Endpoint::parse("uds:" + router_socket_);
    cfg.replicas = endpoints_;
    cfg.hard_deadline_ms = kDeadlineMs;
    router_ = std::make_unique<rc::Router>(cfg);
    router_thread_ = std::thread([this] { router_->run(); });
    try {
      client_ = std::make_unique<rc::ClusterClient>(router_->bound().str());
    } catch (...) {
      shutdown();  // the destructor does not run for a throwing constructor
      throw;
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() { shutdown(); }

  rc::ClusterClient& client() { return *client_; }
  rc::Router& router() { return *router_; }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const std::vector<std::string>& span_files() const { return span_files_; }

  /// Largest VmHWM among the live children.
  double children_peak_rss_mb() {
    double peak = 0.0;
    for (auto& c : children_) {
      if (c.running()) peak = std::max(peak, peak_rss_mb(c.pid()));
    }
    return peak;
  }

  /// Close the client, drain and stop the router, SIGTERM every child (each
  /// writes its span file on the way out) and remove the sockets. True
  /// when every child exited cleanly.
  bool shutdown() {
    client_.reset();
    if (router_) {
      router_->request_stop();
      if (router_thread_.joinable()) router_thread_.join();
      router_.reset();
    }
    bool clean = true;
    for (auto& c : children_) {
      if (c.valid() && !c.terminate(10000.0)) clean = false;
    }
    children_.clear();
    for (const auto& s : sockets_) ::unlink(s.c_str());
    if (!router_socket_.empty()) ::unlink(router_socket_.c_str());
    return clean;
  }

 private:
  std::vector<rc::ChildProcess> children_;
  std::vector<std::string> sockets_;
  std::vector<std::string> span_files_;
  std::vector<std::string> endpoints_;
  std::string router_socket_;
  std::unique_ptr<rc::Router> router_;
  std::unique_ptr<rc::ClusterClient> client_;
  std::thread router_thread_;
};

// ---- due-time wake-up ----------------------------------------------------

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

extern "C" void on_due(int) {}

/// Interrupts the calling thread's blocking calls at a due time. The timer
/// fires at the due time and then every 50 us until disarmed, so a signal
/// that lands just before the thread enters poll() is followed by another
/// inside it. The handler has no SA_RESTART: poll() returns EINTR, and
/// ClusterClient::poll then finds its deadline passed. steady_clock is
/// CLOCK_MONOTONIC, so due times convert directly.
class DueWake {
 public:
  DueWake() {
    struct sigaction sa = {};
    sa.sa_handler = on_due;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGALRM, &sa, &previous_) != 0) {
      throw std::runtime_error("sigaction(SIGALRM) failed");
    }
    sigevent ev = {};
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGALRM;
    ev.sigev_notify_thread_id = ::gettid();
    if (::timer_create(CLOCK_MONOTONIC, &ev, &timer_) != 0) {
      ::sigaction(SIGALRM, &previous_, nullptr);
      throw std::runtime_error("timer_create failed");
    }
  }
  DueWake(const DueWake&) = delete;
  DueWake& operator=(const DueWake&) = delete;
  ~DueWake() {
    ::timer_delete(timer_);
    ::sigaction(SIGALRM, &previous_, nullptr);
  }

  void arm(std::int64_t due_ns) { set(due_ns, 50'000); }
  void disarm() { set(0, 0); }

 private:
  void set(std::int64_t at_ns, std::int64_t every_ns) {
    itimerspec spec = {};
    spec.it_value = {static_cast<time_t>(at_ns / 1'000'000'000),
                     static_cast<long>(at_ns % 1'000'000'000)};
    spec.it_interval = {0, static_cast<long>(every_ns)};
    ::timer_settime(timer_, TIMER_ABSTIME, &spec, nullptr);
  }

  timer_t timer_ = {};
  struct sigaction previous_ = {};
};

struct Reply {
  std::uint64_t id = 0;
  std::int64_t at_ns = 0;
  TickStatus status = TickStatus::kAnswered;
  bool match = false;
};

TickStatus shed_status(rc::ShedReason reason) {
  switch (reason) {
    case rc::ShedReason::kPredictedLate: return TickStatus::kShedLate;
    case rc::ShedReason::kQueueFull: return TickStatus::kShedFull;
    default: return TickStatus::kShedOther;
  }
}

}  // namespace

int replica_main(int argc, char** argv) {
  // Never outlive the benchmark, even if it is killed.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  const bool trace = flag(argc, argv, "trace") == "1";
  const std::string spans_path = flag(argc, argv, "spans");

  const Deployed deployed;
  std::atomic<bool> armed{trace};
  auto timed = std::make_unique<TimedBackend>(
      std::make_unique<rs::QuantizedBackend>(deployed.firmware), armed);
  const TimedBackend& backend = *timed;
  std::vector<std::unique_ptr<rs::Backend>> backends;
  backends.push_back(std::move(timed));

  rc::ReplicaServerConfig cfg;
  cfg.listen = rc::Endpoint::parse(flag(argc, argv, "listen"));
  cfg.gateway.queue_capacity = kQueueCapacity;
  cfg.gateway.max_batch = kMaxBatch;
  cfg.gateway.deadline_ms = kDeadlineMs;
  cfg.gateway.sharding = rs::ShardPolicy::kByStream;
  cfg.gateway.initial_service_est_ms = kServiceSeedMs;

  // The frame decoder runs on the server's event-loop thread only.
  SpanLog log;
  const auto& standardizer = deployed.bundle.standardizer;
  rc::ReplicaServer server(
      cfg, std::move(backends),
      [&](std::span<const std::uint32_t> readings, reads::tensor::Tensor& out) {
        const std::int64_t t0 = now_ns();
        out = standardize_counts(readings, standardizer);
        if (trace) log.add(Layer::kStandardize, t0, now_ns());
      });
  g_server = &server;
  std::signal(SIGTERM, on_sigterm);
  std::cout << "LISTENING " << server.bound().str() << "\n" << std::flush;
  server.run();  // returns after the graceful drain; replicas are joined
  g_server = nullptr;
  if (trace) {
    log.append(backend.log().spans());
    write_spans(spans_path, log.spans());
  }
  return 0;
}

Report run_cluster(const Args& args) {
  const Workload& w = args.workload;
  rn::AssemblerParams ap;

  // Harness material first (untimed): the oracle needs the model.
  const Deployed deployed;
  const auto pool = deployment_frames(args.seed);
  const auto oracle = make_oracle(deployed, pool);
  TickRun run;
  run.trace = args.trace;
  run.schedule = make_schedule(
      {.streams = w.streams,
       .duration_ns = static_cast<std::int64_t>(args.seconds * 1e9),
       .seed = args.seed});
  run.results.resize(run.schedule.size());

  // Set-up, timed kSetupRepeats times: spawn the replicas up to their
  // LISTENING handshake, build the router, connect the client.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (fleet) {
      fleet->shutdown();
      for (const auto& path : fleet->span_files()) std::remove(path.c_str());
    }
    fleet.reset();
    const std::int64_t t0 = now_ns();
    fleet = std::make_unique<Fleet>(args, rep);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rc::ClusterClient& client = fleet->client();

  SpanLog log;
  if (args.trace) log.reserve(run.schedule.size() * 4);

  // Replies, stamped as ClusterClient::poll hands them over.
  std::vector<Reply> replies;
  replies.reserve(run.schedule.size() + 64);
  auto receive = [&](double timeout_ms) {
    auto msg = client.poll(timeout_ms);
    const std::int64_t at = now_ns();
    if (!msg) return;
    Reply reply;
    reply.at_ns = at;
    if (msg->type == rc::MsgType::kResult) {
      const std::int64_t d0 = now_ns();
      const rc::Result res = rc::decode_result(msg->payload);
      const std::int64_t d1 = now_ns();
      reply.id = res.id;
      if (res.id < run.schedule.size()) {
        const reads::tensor::Tensor& want = oracle[run.schedule[res.id].frame];
        const auto flat = want.flat();
        reply.match = res.data.size() == flat.size() &&
                      res.dims.size() == want.rank() &&
                      std::equal(flat.begin(), flat.end(), res.data.begin(),
                                 [](float a, float b) {
                                   return std::memcmp(&a, &b, sizeof a) == 0;
                                 });
        for (std::size_t d = 0; reply.match && d < res.dims.size(); ++d) {
          reply.match = res.dims[d] == want.dim(d);
        }
        if (args.trace && in_trace_block(run.schedule[res.id].due_ns)) {
          log.add(Layer::kResultDecode, d0, d1, res.id);
        }
      }
    } else if (msg->type == rc::MsgType::kShed) {
      const rc::Shed shed = rc::decode_shed(msg->payload);
      reply.id = shed.id;
      reply.status = shed_status(shed.reason);
    } else {
      return;
    }
    replies.push_back(reply);
  };

  TickEncoder encoder(ap.monitors, ap.hubs);
  rn::PacketDecoder decoder;
  std::vector<std::uint8_t> bytes;
  rc::Submit submit;
  submit.packets.resize(ap.hubs);
  std::size_t sent = 0;
  DueWake wake;
  run.t0_ns = now_ns() + 5'000'000;
  for (std::uint32_t i = 0; i < run.schedule.size(); ++i) {
    const TickSpec& t = run.schedule[i];
    TickResult& r = run.results[i];
    encoder.serialize(pool[t.frame], t.seq, bytes);  // the hubs' side
    // Read replies until the tick is due.
    const std::int64_t due = run.t0_ns + t.due_ns;
    wake.arm(due);
    for (std::int64_t left = due - now_ns(); left > 0 && !client.dead();
         left = due - now_ns()) {
      receive(static_cast<double>(left) / 1e6);
    }
    wake.disarm();
    std::this_thread::sleep_until(to_time_point(due));
    r.traced = args.trace && in_trace_block(t.due_ns);

    const std::int64_t s0 = now_ns();
    decoder.feed(bytes);
    for (auto& p : submit.packets) {
      auto packet = decoder.next();
      if (!packet) throw std::runtime_error("packet decoder lost a packet");
      p = std::move(*packet);
    }
    const std::int64_t s1 = now_ns();
    submit.stream = w.stream_ids.at(t.stream);
    submit.req_id = i;
    submit.slo = static_cast<std::uint8_t>(t.stream < w.hard_rt_streams ? 0 : 1);
    const bool ok = client.submit(submit);
    const std::int64_t s2 = now_ns();

    r.sent_ns = s0;
    r.status = TickStatus::kPending;
    ++sent;
    if (r.traced) {
      log.add(Layer::kDecode, s0, s1, i, Layer::kTick);
      log.add(Layer::kClusterSubmit, s1, s2, i, Layer::kTick);
    }
    if (!ok) {
      // The connection died: every tick not yet sent is lost with it.
      for (std::uint32_t j = i + 1; j < run.schedule.size(); ++j) {
        run.results[j].status = TickStatus::kPending;
        run.results[j].sent_ns = run.t0_ns + run.schedule[j].due_ns;
      }
      break;
    }
  }
  // Drain until every sent tick has a terminal reply, or 10 s pass.
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  while (replies.size() < sent && now_ns() < give_up && !client.dead()) {
    receive(20.0);
  }
  const bool dead = client.dead();
  const double wall_ms = static_cast<double>(now_ns() - run.t0_ns) / 1e6;

  for (const Reply& reply : replies) {
    if (reply.id >= run.results.size()) continue;
    TickResult& r = run.results[reply.id];
    if (r.replies++ > 0) continue;
    r.status = reply.status;
    r.reply_ns = reply.at_ns;
    r.match = reply.match;
    if (r.traced) {
      log.add(Layer::kTick, run.t0_ns + run.schedule[reply.id].due_ns,
              reply.at_ns, reply.id);
    }
  }

  // Layer statistics before teardown: router view, every replica's
  // gateway snapshot, and the children's memory.
  const std::string router_stats = fleet->router().stats_json();
  rs::MetricsSnapshot replicas;
  for (const auto& ep : fleet->endpoints()) {
    rc::ClusterClient admin(ep, rc::Role::kAdmin);
    const std::string js = admin.stats(10000.0);
    if (js.empty()) throw std::runtime_error("replica stats timed out");
    replicas.merge(rs::MetricsSnapshot::from_json(js));
  }
  const double rss = std::max(peak_rss_mb(), fleet->children_peak_rss_mb());
  const bool clean = fleet->shutdown();

  Report report;
  account_ticks(run, setup_s, rss, report);
  if (dead || !clean) report.correct = false;

  for (const auto& path : fleet->span_files()) {
    log.append(read_spans(path));
    std::remove(path.c_str());
  }
  const auto& spans = log.spans();

  const std::string router_obj = json_object(router_stats, "router");
  auto router = rs::MetricsSnapshot::from_json(router_obj);
  const std::string counters = json_object(router_stats, "cluster_counters");
  const auto rtts = json_numbers(router_stats, "rtt_est_ms");
  const double router_p50 = router.e2e_samples.percentile(50.0);
  const double replica_p50 = replicas.e2e_samples.percentile(50.0);
  const double tick_p50 = report.end_to_end["tick_p50_ms"].value;

  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t top = 0;
  double busy_ms = 0.0;
  for (const auto& rep : replicas.replicas) {
    frames += rep.frames;
    batches += rep.batches;
    top = std::max<std::uint64_t>(top, rep.frames);
    busy_ms += rep.busy_ms;
  }
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  auto& m = report.per_layer;
  add_layer(m, "net.decode_us", layer_durations(spans, Layer::kDecode, 1e-3),
            "us");
  m["net.rejects"] = {json_number(counters, "bad_frames"), "count"};
  add_layer(m, "train.standardize_us",
            layer_durations(spans, Layer::kStandardize, 1e-3), "us");
  m["serve.batch_frames.mean"] = {
      frac(static_cast<double>(frames), static_cast<double>(batches)),
      "frames"};
  m["serve.shed_late_frac"] = {
      frac(static_cast<double>(replicas.shed_predicted_late),
           static_cast<double>(replicas.arrived)),
      "ratio"};
  m["serve.shed_full_frac"] = {
      frac(static_cast<double>(replicas.shed_queue_full),
           static_cast<double>(replicas.arrived)),
      "ratio"};
  m["serve.replica_share_max"] = {
      frac(static_cast<double>(top), static_cast<double>(frames)), "ratio"};
  m["serve.replica_busy_frac"] = {
      frac(busy_ms, wall_ms * static_cast<double>(replicas.replicas.size())),
      "ratio"};
  add_layer(m, "hls.infer_ms",
            layer_durations(spans, Layer::kInfer, 1e-6, true), "ms");
  m["hls.frames"] = {static_cast<double>(frames), "count"};
  m["tick.self_ms.p50"] = {percentile(tick_self_ms(spans), 50.0), "ms"};

  add_layer(m, "cluster.submit_us",
            layer_durations(spans, Layer::kClusterSubmit, 1e-3), "us");
  add_layer(m, "cluster.result_decode_us",
            layer_durations(spans, Layer::kResultDecode, 1e-3), "us", false);
  m["cluster.router_e2e_ms.p50"] = {router_p50, "ms"};
  m["cluster.router_e2e_ms.p99"] = {router.e2e_samples.percentile(99.0), "ms"};
  m["cluster.replica_e2e_ms.p50"] = {replica_p50, "ms"};
  m["cluster.replica_e2e_ms.p99"] = {replicas.e2e_samples.percentile(99.0),
                                     "ms"};
  m["cluster.rtt_est_ms.max"] = {
      rtts.empty() ? 0.0 : *std::max_element(rtts.begin(), rtts.end()), "ms"};
  m["cluster.shed_late_frac"] = {
      frac(static_cast<double>(router.shed_predicted_late),
           static_cast<double>(router.arrived)),
      "ratio"};
  m["cluster.replica_shed_frac"] = {
      frac(json_number(counters, "replica_sheds"),
           static_cast<double>(router.admitted)),
      "ratio"};
  m["cluster.redispatched"] = {json_number(counters, "redispatched_jobs"),
                               "count"};
  // Differences of medians, not per-tick hop times.
  m["cluster.hop_client_router_ms"] = {tick_p50 - router_p50, "ms"};
  m["cluster.hop_router_replica_ms"] = {router_p50 - replica_p50, "ms"};

  if (args.trace) {
    write_spans(args.out_dir + "/" + w.name + "-seed" +
                    std::to_string(args.seed) + ".spans",
                spans);
  }
  return report;
}

}  // namespace perfbench
