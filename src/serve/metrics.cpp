#include "serve/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace reads::serve {

Metrics::Metrics(std::size_t replicas) : replicas_(replicas) {}

void Metrics::reserve_e2e_samples(std::size_t n) {
  std::lock_guard lock(dist_mutex_);
  e2e_samples_.reserve(n);
}

void Metrics::record_batch(std::size_t replica, double busy_ms,
                           std::span<const double> frame_queue_ms,
                           std::span<const double> frame_e2e_ms,
                           std::size_t deadline_misses) {
  auto& r = replicas_.at(replica);
  const std::size_t n = frame_e2e_ms.size();
  r.frames.fetch_add(n, kRelaxed);
  r.batches.fetch_add(1, kRelaxed);
  r.busy_ns.fetch_add(static_cast<std::uint64_t>(busy_ms * 1e6), kRelaxed);
  std::size_t seen = r.max_batch.load(kRelaxed);
  while (seen < n && !r.max_batch.compare_exchange_weak(seen, n, kRelaxed)) {
  }
  record_completions(frame_queue_ms, frame_e2e_ms, deadline_misses);
}

void Metrics::record_completions(std::span<const double> frame_queue_ms,
                                 std::span<const double> frame_e2e_ms,
                                 std::size_t deadline_misses) {
  completed_.fetch_add(frame_e2e_ms.size(), kRelaxed);
  deadline_misses_.fetch_add(deadline_misses, kRelaxed);

  std::lock_guard lock(dist_mutex_);
  for (double q : frame_queue_ms) queue_ms_.add(q);
  for (double e : frame_e2e_ms) {
    e2e_ms_.add(e);
    e2e_samples_.add(e);
  }
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.arrived = arrived_.load(kRelaxed);
  s.admitted = admitted_.load(kRelaxed);
  s.shed_predicted_late = shed_predicted_late_.load(kRelaxed);
  s.shed_queue_full = shed_queue_full_.load(kRelaxed);
  s.shed_shutdown = shed_shutdown_.load(kRelaxed);
  s.completed = completed_.load(kRelaxed);
  s.deadline_misses = deadline_misses_.load(kRelaxed);
  s.backend_faults = backend_faults_.load(kRelaxed);
  s.quarantines = quarantines_.load(kRelaxed);
  s.restarts = restarts_.load(kRelaxed);
  s.redispatched = redispatched_.load(kRelaxed);
  s.replicas.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    ReplicaSnapshot rs;
    rs.frames = r.frames.load(kRelaxed);
    rs.batches = r.batches.load(kRelaxed);
    rs.busy_ms = static_cast<double>(r.busy_ns.load(kRelaxed)) / 1e6;
    rs.max_batch = r.max_batch.load(kRelaxed);
    rs.faults = r.faults.load(kRelaxed);
    s.replicas.push_back(rs);
  }
  std::lock_guard lock(dist_mutex_);
  s.queue_ms = queue_ms_;
  s.e2e_ms = e2e_ms_;
  s.e2e_samples = e2e_samples_;
  return s;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  arrived += other.arrived;
  admitted += other.admitted;
  shed_predicted_late += other.shed_predicted_late;
  shed_queue_full += other.shed_queue_full;
  shed_shutdown += other.shed_shutdown;
  completed += other.completed;
  deadline_misses += other.deadline_misses;
  backend_faults += other.backend_faults;
  quarantines += other.quarantines;
  restarts += other.restarts;
  redispatched += other.redispatched;
  replicas.insert(replicas.end(), other.replicas.begin(),
                  other.replicas.end());
  queue_ms.merge(other.queue_ms);
  e2e_ms.merge(other.e2e_ms);
  e2e_samples.merge(other.e2e_samples);
}

std::string MetricsSnapshot::to_json(double wall_s, bool include_samples) {
  // All doubles go through json_double (17 significant digits, enough to
  // round-trip): the cluster report re-parses these snapshots with
  // from_json, and derived rates recomputed from the parsed counters must
  // re-emit byte-identically.
  std::ostringstream out;
  out << "{\"arrived\": " << arrived << ", \"admitted\": " << admitted
      << ", \"completed\": " << completed
      << ", \"deadline_misses\": " << deadline_misses << ", \"shed\": {"
      << "\"predicted_late\": " << shed_predicted_late
      << ", \"queue_full\": " << shed_queue_full
      << ", \"shutdown\": " << shed_shutdown
      << ", \"rate\": " << util::json_double(shed_rate()) << "}"
      << ", \"goodput_fps\": " << util::json_double(goodput_fps(wall_s))
      << ", \"faults\": {"
      << "\"backend_faults\": " << backend_faults
      << ", \"quarantines\": " << quarantines
      << ", \"restarts\": " << restarts
      << ", \"redispatched\": " << redispatched << "}"
      << ", \"e2e_ms\": " << e2e_samples.summary_json();
  if (include_samples) {
    // summary_json above already sorted the retained samples, so this array
    // is emitted sorted and round-trips in a canonical order.
    out << ", \"e2e_values\": [";
    const auto& vs = e2e_samples.values();
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out << ", ";
      out << util::json_double(vs[i]);
    }
    out << "]";
  }
  out << ", \"queue_hist\": " << queue_ms.to_json()
      << ", \"e2e_hist\": " << e2e_ms.to_json() << ", \"replicas\": [";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const auto& r = replicas[i];
    if (i) out << ", ";
    out << "{\"frames\": " << r.frames << ", \"batches\": " << r.batches
        << ", \"busy_ms\": " << util::json_double(r.busy_ms)
        << ", \"utilization\": "
        << util::json_double(wall_s > 0.0 ? r.busy_ms / (wall_s * 1e3) : 0.0)
        << ", \"max_batch\": " << r.max_batch
        << ", \"faults\": " << r.faults << "}";
  }
  out << "]}";
  return out.str();
}

MetricsSnapshot MetricsSnapshot::from_json(const std::string& json) {
  const util::JsonScan scan(json, "metrics");
  MetricsSnapshot s;
  s.arrived = scan.count("arrived");
  s.admitted = scan.count("admitted");
  s.completed = scan.count("completed");
  s.deadline_misses = scan.count("deadline_misses");
  s.shed_predicted_late = scan.count("predicted_late");
  s.shed_queue_full = scan.count("queue_full");
  s.shed_shutdown = scan.count("shutdown");
  s.backend_faults = scan.count("backend_faults");
  s.quarantines = scan.count("quarantines");
  s.restarts = scan.count("restarts");
  s.redispatched = scan.count("redispatched");
  s.queue_ms = util::Histogram::from_json(
      scan.enclosed(scan.value_pos("queue_hist")));
  s.e2e_ms =
      util::Histogram::from_json(scan.enclosed(scan.value_pos("e2e_hist")));
  const std::string arr = scan.enclosed(scan.value_pos("replicas"));
  const util::JsonScan rows(arr, "metrics");
  for (auto b = arr.find('{'); b != std::string::npos; b = arr.find('{', b)) {
    const std::string obj = rows.enclosed(b);
    const util::JsonScan row(obj, "metrics");
    ReplicaSnapshot r;
    r.frames = row.count("frames");
    r.batches = row.count("batches");
    r.busy_ms = row.number("busy_ms");
    r.max_batch = row.count("max_batch");
    r.faults = row.count("faults");
    s.replicas.push_back(r);
    b += obj.size();
  }
  if (scan.has("e2e_values")) {
    const auto vs = scan.numbers("e2e_values");
    s.e2e_samples.reserve(vs.size());
    for (double v : vs) s.e2e_samples.add(v);
  }
  return s;
}

}  // namespace reads::serve
