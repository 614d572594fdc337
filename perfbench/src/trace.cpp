#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kNone: return "-";
    case Layer::kTick: return "tick";
    case Layer::kDecode: return "net.decode";
    case Layer::kAssemble: return "net.assemble";
    case Layer::kStandardize: return "train.standardize";
    case Layer::kSubmit: return "serve.submit";
    case Layer::kInfer: return "hls.infer";
    case Layer::kClusterSubmit: return "cluster.submit";
    case Layer::kResultDecode: return "cluster.result_decode";
  }
  return "?";
}

namespace {

Layer layer_from_name(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(Layer::kResultDecode); ++i) {
    if (name == layer_name(static_cast<Layer>(i))) return static_cast<Layer>(i);
  }
  throw std::runtime_error("unknown span layer " + name);
}

}  // namespace

std::int64_t self_time_ns(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  cover.reserve(children.size());
  for (const auto& c : children) {
    const std::int64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
  for (const auto& [lo, hi] : cover) {
    if (lo > run_hi) {
      if (run_hi > run_lo) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (run_hi > run_lo) covered += run_hi - run_lo;
  return parent.duration_ns() - covered;
}

std::vector<double> tick_self_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> roots;
  std::map<std::uint64_t, std::vector<Span>> children;
  for (const auto& s : spans) {
    if (s.tick == kNoTick) continue;
    if (s.layer == Layer::kTick) {
      roots[s.tick] = &s;
    } else if (s.parent == Layer::kTick) {
      children[s.tick].push_back(s);
    }
  }
  std::vector<double> out;
  out.reserve(roots.size());
  for (const auto& [tick, root] : roots) {
    const auto& kids = children[tick];
    out.push_back(static_cast<double>(self_time_ns(*root, kids)) / 1e6);
  }
  return out;
}

std::vector<double> layer_durations(const std::vector<Span>& spans,
                                    Layer layer, double scale,
                                    bool per_frame) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.layer != layer) continue;
    double d = static_cast<double>(s.duration_ns()) * scale;
    if (per_frame && s.frames > 0) d /= static_cast<double>(s.frames);
    out.push_back(d);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "layer parent tick frames start_ns end_ns\n";
  for (const auto& s : spans) {
    out << layer_name(s.layer) << ' ' << layer_name(s.parent) << ' '
        << (s.tick == kNoTick ? -1LL : static_cast<long long>(s.tick))
        << ' ' << s.frames << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
  }
}

std::vector<Span> read_spans(const std::string& path) {
  std::vector<Span> spans;
  std::ifstream in(path);
  if (!in) return spans;
  std::string header;
  std::getline(in, header);
  std::string layer;
  std::string parent;
  long long tick = 0;
  std::uint32_t frames = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  while (in >> layer >> parent >> tick >> frames >> start >> end) {
    Span s;
    s.layer = layer_from_name(layer);
    s.parent = layer_from_name(parent);
    s.tick = tick < 0 ? kNoTick : static_cast<std::uint64_t>(tick);
    s.frames = frames;
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(s);
  }
  return spans;
}

double percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  reads::util::Percentiles q;
  q.reserve(values.size());
  for (const double v : values) q.add(v);
  return q.percentile(p);
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Among the ranks 1..n, the value picked is the percentile's own rank.
  if (n == 0) return 0;
  reads::util::Percentiles ranks;
  ranks.reserve(n);
  for (std::size_t r = 1; r <= n; ++r) ranks.add(static_cast<double>(r));
  return n - static_cast<std::size_t>(ranks.percentile(p));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

WindowedTicks windowed(const std::vector<TickSample>& ticks) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> on_time;
  reads::util::Percentiles latencies;
  latencies.reserve(kWindowAnswered);
  std::size_t sent = 0;
  std::size_t timely = 0;
  for (const auto& t : ticks) {
    ++sent;
    timely += t.on_time ? 1 : 0;
    if (t.answered) latencies.add(t.latency_ms);
    if (latencies.count() < kWindowAnswered) continue;
    p50.push_back(latencies.percentile(50.0));
    p99.push_back(latencies.percentile(99.0));
    on_time.push_back(static_cast<double>(timely) / static_cast<double>(sent));
    latencies.reset();
    sent = 0;
    timely = 0;
  }
  WindowedTicks w;
  w.windows = p50.size();
  w.p50_ms = percentile(p50, 50.0);
  w.p99_ms = percentile(p99, 50.0);
  w.on_time = percentile(on_time, 50.0);
  return w;
}

}  // namespace perfbench
