// Span log and sample arithmetic of the control-tick benchmark.
//
// Spans are recorded by the benchmark's own code around each call into a
// module's public functions: (layer, start, end, parent layer, tick id,
// frames covered). Every recording thread owns its own SpanLog, so the hot
// path takes no lock; logs are read only after their writer has been
// joined, and dumped to a text file when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock epoch).
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline Clock::time_point to_time_point(std::int64_t ns) noexcept {
  return Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(ns)));
}

/// One span name per instrumented call site.
enum class Layer : std::uint8_t {
  kNone,           ///< no parent
  kTick,           ///< due time -> reply observed (root of a tick)
  kDecode,         ///< net::PacketDecoder feed + next
  kAssemble,       ///< net::FrameAssembler::assemble_into
  kStandardize,    ///< reading decode + train::Standardizer::transform
  kSubmit,         ///< serve::Gateway::submit_into
  kInfer,          ///< serve::QuantizedBackend::infer_batch_into (one batch)
  kClusterSubmit,  ///< cluster::ClusterClient::submit
  kResultDecode,   ///< cluster::decode_result
};

const char* layer_name(Layer layer) noexcept;

inline constexpr std::uint64_t kNoTick = std::numeric_limits<std::uint64_t>::max();

struct Span {
  Layer layer = Layer::kNone;
  Layer parent = Layer::kNone;
  std::uint32_t frames = 1;  ///< frames covered (a batch span covers several)
  std::uint64_t tick = kNoTick;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Single-writer span buffer.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t tick = kNoTick, Layer parent = Layer::kNone,
           std::uint32_t frames = 1) {
    spans_.push_back(Span{layer, parent, frames, tick, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  void append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }

 private:
  std::vector<Span> spans_;
};

/// `parent`'s duration minus the part of its interval covered by the union
/// of `children` (children may overlap each other or spill past the
/// parent; only the covered part inside the parent counts).
std::int64_t self_time_ns(const Span& parent, std::span<const Span> children);

/// Self time of every kTick span in `spans`, children matched by tick id
/// and parent == kTick; in milliseconds, in tick order.
std::vector<double> tick_self_ms(const std::vector<Span>& spans);

/// Per-span durations of one layer (in `scale` units per nanosecond, e.g.
/// 1e-3 for microseconds); batch spans are divided by the frames covered
/// when `per_frame`.
std::vector<double> layer_durations(const std::vector<Span>& spans,
                                    Layer layer, double scale,
                                    bool per_frame = false);

/// Text dump: one header line, then "layer parent tick frames start end".
void write_spans(const std::string& path, const std::vector<Span>& spans);
/// Inverse of write_spans (a missing file yields no spans).
std::vector<Span> read_spans(const std::string& path);

// ---- sample arithmetic ---------------------------------------------------

/// Nearest-rank percentile of `values` (p in [0, 100]) as
/// reads::util::Percentiles picks it; 0 for an empty sample.
double percentile(const std::vector<double>& values, double p);

/// Samples ranked above the p-th percentile of n, by the same rank rule.
std::size_t samples_beyond(std::size_t n, double p);

/// The benchmark reports a percentile only when at least this many samples
/// lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

double mean(const std::vector<double>& values);

/// One sent tick, in due order: whether it was answered, its latency from
/// its due time, and whether it counts as on time.
struct TickSample {
  bool answered = false;
  bool on_time = false;
  double latency_ms = 0.0;
};

/// Answered ticks per window: the fewest for which a p99 has ten samples
/// beyond it.
inline constexpr std::size_t kWindowAnswered = 1000;

/// Medians over windows of the tick stream. Consecutive ticks form a window
/// until it holds kWindowAnswered answered ticks (a trailing partial window
/// is dropped). Medians over windows keep one host stall from moving a
/// whole run's figure.
struct WindowedTicks {
  std::size_t windows = 0;
  double p50_ms = 0.0;    ///< median of the windows' p50 latency
  double p99_ms = 0.0;    ///< median of the windows' p99 latency
  double on_time = 0.0;   ///< median of the windows' on-time share of sent
};
WindowedTicks windowed(const std::vector<TickSample>& ticks);

}  // namespace perfbench
