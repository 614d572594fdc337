// Fig. 5c — distribution of the end-to-end system latency (steps 1-8 of
// Fig. 2) over many frames. The paper reports: U-Net mean 1.74 ms, range
// 1.73-2.27 ms, 99.97% of frames below 1.9 ms, rare >2 ms stragglers from
// OS scheduling; MLP mean 0.31 ms, range 0.26-0.91 ms; throughput 575 fps.
//
// The latency of the pipeline is data-independent, so the long run uses the
// timing-only IP mode; functional equivalence is covered by the tests.
//
//   ./bench_fig5c [--frames=10000] [--seed=42]
#include "common.hpp"

#include "util/stats.hpp"

namespace {

void distribution(const char* name, const reads::hls::FirmwareModel& fw,
                  std::size_t frames, std::uint64_t seed) {
  using namespace reads;
  const hls::QuantizedModel qm(fw);
  soc::SocParams params;
  params.functional_ip = false;
  soc::ArriaSocSystem system(qm, params, seed);
  const tensor::Tensor zero_frame(
      {fw.layers.front().positions, fw.layers.front().out_channels});

  util::RunningStats stats;
  util::Percentiles pct;
  pct.reserve(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    const double ms = system.process(zero_frame).timing.total_ms;
    stats.add(ms);
    pct.add(ms);
  }

  std::cout << "--- " << name << " (" << frames << " frames) ---\n";
  std::cout << "mean " << util::Table::fmt(stats.mean(), 3) << " ms, min "
            << util::Table::fmt(stats.min(), 3) << " ms, max "
            << util::Table::fmt(stats.max(), 3) << " ms\n";
  std::cout << "p50 " << util::Table::fmt(pct.percentile(50), 3) << "  p99 "
            << util::Table::fmt(pct.percentile(99), 3) << "  p99.97 "
            << util::Table::fmt(pct.percentile(99.97), 3) << " ms\n";
  std::cout << "throughput (back-to-back): "
            << util::Table::fmt(1e3 / stats.mean(), 0) << " fps\n";
  util::Histogram hist;
  for (double v : pct.values()) hist.add(v);
  std::cout << hist.ascii(44) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reads;
  util::Cli cli(argc, argv);
  core::PretrainedOptions opts;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto frames = static_cast<std::size_t>(cli.get_int("frames", 10'000));
  cli.check_unknown();

  bench::print_header(
      "Fig. 5c: system latency distribution (steps 1-8)",
      "U-Net mean 1.74 ms, 1.73-2.27 ms, 99.97% < 1.9 ms, 575 fps; "
      "MLP mean 0.31 ms, 0.26-0.91 ms");

  bench::DeployedUnet unet(opts);
  distribution("U-Net", unet.deployed_firmware(), frames, opts.seed);
  bench::DeployedMlp mlp(opts);
  distribution("MLP", mlp.deployed_firmware(), frames, opts.seed);
  return 0;
}
