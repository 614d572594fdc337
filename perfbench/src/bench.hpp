// Shared vocabulary of the control-tick benchmark: workloads, the deployed
// model, the timed backend decorator, per-tick outcomes and the report.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pretrained.hpp"
#include "hls/firmware.hpp"
#include "schedule.hpp"
#include "serve/backend.hpp"
#include "trace.hpp"

namespace perfbench {

/// Gateway settings shared by every workload (each cluster replica process
/// runs one gateway replica): two replicas, micro-batches of up to 4, 64
/// queued frames per shard, the paper's 3 ms deadline.
inline constexpr std::size_t kReplicas = 2;
inline constexpr std::size_t kMaxBatch = 4;
inline constexpr std::size_t kQueueCapacity = 64;
inline constexpr double kDeadlineMs = 3.0;

/// Fixed workload parameters; BENCHMARK.json records the same numbers.
struct Workload {
  std::string name;
  bool cluster = false;
  std::uint32_t streams = 4;
  /// Streams [0, hard_rt_streams) submit hard-real-time (slo 0) ticks.
  std::uint32_t hard_rt_streams = 0;
  /// Cluster workloads: the wire stream id of each stream index. The router
  /// pins a stream id to a replica by consistent hash, so the ids choose
  /// which replica carries which stream.
  std::vector<std::uint64_t> stream_ids = {};
};

const Workload* find_workload(const std::string& name);

struct Args {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
};

/// Timed set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Ticks due in the first half second are warm-up: audited, not timed.
inline constexpr std::int64_t kWarmupNs = 500'000'000;
/// Traced runs alternate untraced and traced blocks of this length, so
/// trace.overhead_frac compares ticks of the same run.
inline constexpr std::int64_t kTraceBlockNs = 1'000'000'000;
/// Service-time EWMA seed of every gateway replica: the ~1 ms quantized
/// U-Net frame, a fixed constant rather than a probe of this host.
inline constexpr double kServiceSeedMs = 1.0;

/// The deployed 16-bit U-Net: cached weights, calibration profile and
/// compiled firmware, as the repository's benches deploy it. Constructing
/// one is the model part of every set-up.
struct Deployed {
  Deployed();

  reads::core::TrainedBundle bundle;
  reads::hls::FirmwareModel firmware;
};

/// Raw counts -> (monitors, 1) readings -> standardized frame: the decode
/// that the assembler and the replica-side frame decoder both perform.
reads::tensor::Tensor standardize_counts(
    std::span<const std::uint32_t> counts,
    const reads::train::Standardizer& standardizer);

/// The seeded frame pool (make_frame_pool) of the machine the deployed model
/// was trained on: its installed monitor gains and pedestals are the ones
/// the deployment reads.
std::vector<std::vector<std::uint32_t>> deployment_frames(std::uint64_t seed);

/// Direct single-threaded hls::QuantizedModel::forward on every pool frame.
std::vector<reads::tensor::Tensor> make_oracle(
    const Deployed& deployed,
    const std::vector<std::vector<std::uint32_t>>& pool);

bool bit_identical(const reads::tensor::Tensor& a,
                   const reads::tensor::Tensor& b);

/// Times QuantizedBackend::infer_batch_into; records a span per batch while
/// `armed` is set. Single writer: the replica thread that owns it.
class TimedBackend final : public reads::serve::Backend {
 public:
  TimedBackend(std::unique_ptr<reads::serve::Backend> inner,
               const std::atomic<bool>& armed)
      : inner_(std::move(inner)), armed_(armed) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  reads::tensor::Tensor infer(const reads::tensor::Tensor& frame) override {
    return inner_->infer(frame);
  }
  void infer_batch_into(std::span<const reads::tensor::Tensor> frames,
                        std::span<reads::tensor::Tensor> outputs) override;

  const SpanLog& log() const noexcept { return log_; }
  std::uint64_t frames() const noexcept { return frames_; }

 private:
  std::unique_ptr<reads::serve::Backend> inner_;
  const std::atomic<bool>& armed_;
  SpanLog log_;
  std::uint64_t frames_ = 0;
};

enum class TickStatus : std::uint8_t {
  kUnsent,
  kPending,    ///< sent, no terminal reply yet
  kAnswered,   ///< a result arrived
  kShedLate,   ///< refused: predicted late
  kShedFull,   ///< refused: queue full / outstanding cap
  kShedOther,  ///< refused for another reason (shutdown, no replica, ...)
};

struct TickResult {
  std::int64_t sent_ns = 0;   ///< generator started handling the tick
  std::int64_t reply_ns = 0;  ///< result published / received
  TickStatus status = TickStatus::kUnsent;
  bool match = false;      ///< result bit-identical to the oracle
  std::uint8_t replies = 0;  ///< terminal replies seen (> 1 = duplicated)
  bool traced = false;
};

/// Named value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Report {
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t divergent = 0;
  bool correct = true;
};

/// Everything a workload hands to the shared tick accounting.
struct TickRun {
  std::vector<TickSpec> schedule;
  std::vector<TickResult> results;
  std::int64_t t0_ns = 0;  ///< schedule origin (steady ns)
  bool trace = false;
};

bool in_trace_block(std::int64_t due_ns);

/// Fill the end-to-end metrics, gen.lag, trace.overhead_frac and the audit
/// counts (attempted, failed, correct) shared by every workload. Lost ticks
/// (still pending at the end, including any a dead connection took with
/// it), duplicated replies and bit-divergent answers are failures; a shed
/// is not. Throws when too few ticks were answered to support a p99.
void account_ticks(const TickRun& run, const std::vector<double>& setup_s,
                   double peak_rss_mb, Report& report);

/// Per-layer distributions from spans (p50/p99 of one layer, in `unit`).
void add_layer(Metrics& out, const std::string& name,
               const std::vector<double>& v,
               const std::string& unit, bool with_p99 = true);

Report run_edge(const Args& args);
Report run_cluster(const Args& args);
/// Child-process entry point of the cluster workload (--role=replica).
int replica_main(int argc, char** argv);

}  // namespace perfbench
