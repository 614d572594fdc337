// perfbench_tick: paced 3 ms control ticks through the real ingest ->
// inference -> reply path, timed end to end and per layer.
//
//   perfbench_tick --workload edge_nominal|edge_overload|cluster_uds
//                  --seed N --seconds S --trace 0|1 [--out_dir DIR]
//
// Prints a human-readable block (workload, host facts, audit, metrics by
// name and unit) and, as the last line, one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when any tick is lost, duplicated or
// bit-divergent, and without a result on any harness error.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"
#include "host.hpp"
#include "util/stats.hpp"

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of the result line, in BENCHMARK.json order.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"tick_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric, printed on every traced run; a layer that is not
/// on a workload's path reads 0 there (see README.md).
constexpr MetricName kPerLayer[] = {
    {"net.decode_us.p50", "us"},
    {"net.decode_us.p99", "us"},
    {"net.assemble_us.p50", "us"},
    {"net.assemble_us.p99", "us"},
    {"net.rejects", "count"},
    {"train.standardize_us.p50", "us"},
    {"train.standardize_us.p99", "us"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.batch_frames.mean", "frames"},
    {"serve.shed_late_frac", "ratio"},
    {"serve.shed_full_frac", "ratio"},
    {"serve.replica_share_max", "ratio"},
    {"serve.replica_busy_frac", "ratio"},
    {"hls.infer_ms.p50", "ms"},
    {"hls.infer_ms.p99", "ms"},
    {"hls.frames", "count"},
    {"cluster.submit_us.p50", "us"},
    {"cluster.submit_us.p99", "us"},
    {"cluster.result_decode_us.p50", "us"},
    {"cluster.router_e2e_ms.p50", "ms"},
    {"cluster.router_e2e_ms.p99", "ms"},
    {"cluster.replica_e2e_ms.p50", "ms"},
    {"cluster.replica_e2e_ms.p99", "ms"},
    {"cluster.rtt_est_ms.max", "ms"},
    {"cluster.shed_late_frac", "ratio"},
    {"cluster.replica_shed_frac", "ratio"},
    {"cluster.redispatched", "count"},
    {"cluster.hop_client_router_ms", "ms"},
    {"cluster.hop_router_replica_ms", "ms"},
    {"tick.p99_ms", "ms"},
    {"tick.on_time_frac", "ratio"},
    {"tick.self_ms.p50", "ms"},
    {"ticks.traced", "count"},
    {"gen.lag_ms.p99", "ms"},
    {"trace.overhead_frac", "ratio"},
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::string workload;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + key);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--out_dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload '" + workload + "'");
  if (!(args.seconds >= 1.0 && args.seconds <= 60.0)) {
    throw std::invalid_argument("--seconds must be in [1, 60]");
  }
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
  args.workload = *w;
  args.trace = trace == "1";
  return args;
}

/// Pick `names` out of `have` (0 when absent); throws on a produced metric
/// the list does not name, so the result line never drifts from it.
template <std::size_t N>
Metrics select(const MetricName (&names)[N], const Metrics& have,
               bool strict) {
  Metrics out;
  for (const auto& n : names) {
    const auto it = have.find(n.name);
    out[n.name] = {it == have.end() ? 0.0 : it->second.value, n.unit};
  }
  if (strict) {
    for (const auto& [name, metric] : have) {
      if (!out.count(name)) throw std::logic_error("unlisted metric " + name);
    }
  }
  return out;
}

template <std::size_t N>
void print_metrics(const MetricName (&names)[N], const Metrics& values) {
  for (const auto& n : names) {
    const auto& m = values.at(n.name);
    std::cout << "  " << n.name << " = " << reads::util::json_double(m.value)
              << " " << m.unit << "\n";
  }
}

std::string result_json(const Report& r, const MetricName* names,
                        std::size_t count, const Metrics& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto& m = values.at(names[i].name);
    if (!std::isfinite(m.value)) {
      throw std::runtime_error(std::string("non-finite metric ") + names[i].name);
    }
    out << (i ? ", " : "") << "\"" << names[i].name << "\": {\"value\": "
        << reads::util::json_double(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "--role=replica") {
      return replica_main(argc, argv);
    }
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    HostFacts host = HostFacts::probe();

    const Workload& w = args.workload;
    std::cout << "workload " << w.name << ": " << w.streams << " streams x 333 Hz, "
              << kReplicas << (w.cluster ? " replica processes" : " replicas")
              << ", max_batch " << kMaxBatch << ", queue " << kQueueCapacity
              << ", deadline " << kDeadlineMs << " ms, hard-RT streams "
              << w.hard_rt_streams << ", seed " << args.seed << ", "
              << args.seconds << " s" << (args.trace ? ", traced" : "") << "\n"
              << std::flush;

    const Report report = w.cluster ? run_cluster(args) : run_edge(args);
    host.load_end = loadavg1();
    host.gen_lag_p99_ms = report.per_layer.at("gen.lag_ms.p99").value;

    const Metrics e2e = select(kEndToEnd, report.end_to_end, false);
    const Metrics layer = select(kPerLayer, report.per_layer, true);
    std::cout << "host: " << host.json() << "\n"
              << "audit: " << report.attempted << " ticks sent, "
              << report.lost << " lost, " << report.duplicated
              << " duplicated, " << report.divergent << " bit-divergent\n"
              << "end to end:\n";
    print_metrics(kEndToEnd, e2e);
    for (const auto& [name, m] : report.end_to_end) {
      if (e2e.count(name)) continue;  // printed above
      std::cout << "  " << name << " = " << reads::util::json_double(m.value)
                << " " << m.unit << "\n";
    }
    if (args.trace) {
      std::cout << "per layer:\n";
      print_metrics(kPerLayer, layer);
    }
    std::cout << (args.trace ? result_json(report, kPerLayer,
                                           std::size(kPerLayer), layer)
                             : result_json(report, kEndToEnd,
                                           std::size(kEndToEnd), e2e))
              << std::endl;
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tick: " << e.what() << "\n";
    return 2;
  }
}
