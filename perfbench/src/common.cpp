#include <cstring>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "blm/data.hpp"
#include "hls/profiler.hpp"
#include "hls/qmodel.hpp"
#include "net/packet.hpp"

namespace perfbench {

namespace rt = reads::tensor;

const Workload* find_workload(const std::string& name) {
  // 333 Hz per stream. Ids 0 and 3 land on different replicas of a
  // two-node ring, so each cluster replica carries one stream.
  static const Workload kWorkloads[] = {
      {.name = "edge_nominal", .streams = 4},
      {.name = "edge_overload", .streams = 12},
      {.name = "cluster_uds", .cluster = true, .streams = 2,
       .hard_rt_streams = 1, .stream_ids = {0, 3}},
  };
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Deployed::Deployed() : bundle(reads::core::pretrained_unet()) {
  const reads::core::PretrainedOptions opts;
  const auto calibration = reads::blm::build_eval_inputs(
      64, opts.seed + 1, bundle.standardizer, bundle.machine);
  const auto profile = reads::hls::profile_model(bundle.model, calibration);
  reads::hls::HlsConfig cfg;
  cfg.quant = reads::hls::layer_based_config(bundle.model, profile, 16);
  cfg.reuse = reads::hls::ReusePolicy::deployed_unet();
  firmware = reads::hls::compile(bundle.model, cfg);
}

std::vector<std::vector<std::uint32_t>> deployment_frames(std::uint64_t seed) {
  return make_frame_pool(reads::core::PretrainedOptions{}.seed, seed);
}

rt::Tensor standardize_counts(std::span<const std::uint32_t> counts,
                              const reads::train::Standardizer& standardizer) {
  rt::Tensor raw({counts.size(), 1});
  auto dst = raw.flat();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    dst[i] = static_cast<float>(reads::net::decode_reading(counts[i]));
  }
  return standardizer.transform(raw);
}

std::vector<rt::Tensor> make_oracle(
    const Deployed& deployed,
    const std::vector<std::vector<std::uint32_t>>& pool) {
  const reads::hls::QuantizedModel direct(deployed.firmware);
  std::vector<rt::Tensor> oracle;
  oracle.reserve(pool.size());
  for (const auto& counts : pool) {
    oracle.push_back(
        direct.forward(standardize_counts(counts, deployed.bundle.standardizer)));
  }
  return oracle;
}

bool bit_identical(const rt::Tensor& a, const rt::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  return std::memcmp(fa.data(), fb.data(), fa.size_bytes()) == 0;
}

void TimedBackend::infer_batch_into(std::span<const rt::Tensor> frames,
                                    std::span<rt::Tensor> outputs) {
  const std::int64_t t0 = now_ns();
  inner_->infer_batch_into(frames, outputs);
  const std::int64_t t1 = now_ns();
  frames_ += frames.size();
  if (armed_.load(std::memory_order_relaxed)) {
    log_.add(Layer::kInfer, t0, t1, kNoTick, Layer::kNone,
             static_cast<std::uint32_t>(frames.size()));
  }
}

bool in_trace_block(std::int64_t due_ns) {
  return (due_ns / kTraceBlockNs) % 2 == 1;
}

void add_layer(Metrics& out, const std::string& name,
               const std::vector<double>& v,
               const std::string& unit, bool with_p99) {
  out[name + ".p50"] = {percentile(v, 50.0), unit};
  if (with_p99) out[name + ".p99"] = {percentile(v, 99.0), unit};
}

void account_ticks(const TickRun& run, const std::vector<double>& setup_s,
                   double peak_rss_mb, Report& report) {
  std::vector<TickSample> untraced;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    const TickSpec& t = run.schedule[i];
    const TickResult& r = run.results[i];
    if (r.status == TickStatus::kUnsent) continue;
    ++report.attempted;
    if (r.status == TickStatus::kPending) ++report.lost;
    if (r.replies > 1) ++report.duplicated;
    const bool answered = r.status == TickStatus::kAnswered;
    if (answered && !r.match) ++report.divergent;
    if (t.due_ns < kWarmupNs) continue;

    const std::int64_t due = run.t0_ns + t.due_ns;
    lag_ms.push_back(static_cast<double>(r.sent_ns - due) / 1e6);
    TickSample sample;
    sample.answered = answered;
    if (answered) {
      sample.latency_ms = static_cast<double>(r.reply_ns - due) / 1e6;
      sample.on_time = r.match && sample.latency_ms <= kDeadlineMs;
      (r.traced ? traced_ms : untraced_ms).push_back(sample.latency_ms);
    }
    if (!r.traced) untraced.push_back(sample);
  }
  report.failed = report.lost + report.duplicated + report.divergent;
  report.correct = report.failed == 0;

  const WindowedTicks w = windowed(untraced);
  if (w.windows == 0 ||
      (run.trace && !percentile_supported(traced_ms.size(), 99.0))) {
    throw std::runtime_error(
        "too few answered ticks for a p99 with " +
        std::to_string(kMinTailSamples) + " samples beyond it (" +
        std::to_string(untraced_ms.size()) + " untraced, " +
        std::to_string(traced_ms.size()) + " traced)");
  }

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = {percentile(setup_s, 50.0), "s"};
  e2e["tick_p50_ms"] = {w.p50_ms, "ms"};
  e2e["tick_p99_ms"] = {w.p99_ms, "ms"};
  e2e["on_time_frac"] = {w.on_time, "ratio"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  e2e["ticks_answered"] = {static_cast<double>(untraced_ms.size()), "count"};
  e2e["tick_windows"] = {static_cast<double>(w.windows), "count"};
  e2e["tick_p99_pooled_ms"] = {percentile(untraced_ms, 99.0), "ms"};
  e2e["failed_frac"] = {static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted),
                        "ratio"};

  auto& layer = report.per_layer;
  layer["gen.lag_ms.p99"] = {percentile(lag_ms, 99.0), "ms"};
  layer["trace.overhead_frac"] = {
      run.trace ? percentile(traced_ms, 50.0) / percentile(untraced_ms, 50.0) -
                      1.0
                : 0.0,
      "ratio"};
  layer["ticks.traced"] = {static_cast<double>(traced_ms.size()), "count"};
  layer["tick.p99_ms"] = {w.p99_ms, "ms"};
  layer["tick.on_time_frac"] = {w.on_time, "ratio"};
}

}  // namespace perfbench
