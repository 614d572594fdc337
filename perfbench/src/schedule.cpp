#include "schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "blm/machine.hpp"
#include "net/hub.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace rn = reads::net;

std::vector<TickSpec> make_schedule(const ScheduleParams& params) {
  if (params.streams == 0) {
    throw std::invalid_argument("make_schedule: no streams");
  }
  // Streams are staggered evenly across the period; the seed sets the
  // common offset (and, below, the frames). Even staggering keeps the
  // arrival pattern the same for every seed, so seeds vary the inputs and
  // not the burstiness the gateway sees.
  reads::util::Xoshiro256 rng(reads::util::derive_seed(params.seed, 0x7c1c));
  const double offset = rng.uniform();
  std::vector<std::int64_t> phase(params.streams);
  for (std::uint32_t s = 0; s < params.streams; ++s) {
    phase[s] = static_cast<std::int64_t>(
        (static_cast<double>(s) + offset) / static_cast<double>(params.streams) *
        static_cast<double>(kPeriodNs));
  }
  std::vector<TickSpec> ticks;
  ticks.reserve(static_cast<std::size_t>(params.duration_ns / kPeriodNs + 1) *
                params.streams);
  for (std::uint32_t s = 0; s < params.streams; ++s) {
    std::uint32_t seq = 0;
    for (std::int64_t due = phase[s]; due < params.duration_ns;
         due += kPeriodNs, ++seq) {
      ticks.push_back({due, s, seq, 0});
    }
  }
  std::sort(ticks.begin(), ticks.end(), [](const TickSpec& a, const TickSpec& b) {
    return a.due_ns != b.due_ns ? a.due_ns < b.due_ns : a.stream < b.stream;
  });
  // Frames are drawn in schedule order from the same seeded stream, so a
  // stream's frame sequence depends on the seed alone.
  for (auto& t : ticks) {
    t.frame = static_cast<std::uint32_t>(rng.uniform_int(kFramePool));
  }
  return ticks;
}

std::vector<std::vector<std::uint32_t>> make_frame_pool(
    std::uint64_t machine_seed, std::uint64_t seed) {
  const reads::blm::MachineModel machine(
      reads::blm::MachineConfig::fermilab_like(), machine_seed);
  reads::util::Xoshiro256 rng(reads::util::derive_seed(seed, 0xf4a3));
  std::vector<std::vector<std::uint32_t>> pool(kFramePool);
  for (auto& counts : pool) {
    const auto truth = machine.sample_truth(rng);
    const auto readings = machine.readings(truth, rng);
    counts.resize(readings.size());
    for (std::size_t m = 0; m < readings.size(); ++m) {
      counts[m] = rn::encode_reading(readings[m]);
    }
  }
  return pool;
}

TickEncoder::TickEncoder(std::size_t monitors, std::size_t hubs)
    : layout_(rn::hub_layout(monitors, hubs)) {}

void TickEncoder::packets(const std::vector<std::uint32_t>& counts,
                          std::uint32_t seq,
                          std::vector<rn::BlmPacket>& packets) const {
  packets.resize(layout_.size());
  for (std::size_t h = 0; h < layout_.size(); ++h) {
    auto& p = packets[h];
    const auto [first, count] = layout_[h];
    p.hub_id = static_cast<std::uint8_t>(h);
    p.sequence = seq;
    p.first_monitor = first;
    p.readings.assign(counts.begin() + first, counts.begin() + first + count);
    rn::seal_packet(p);
  }
}

void TickEncoder::serialize(const std::vector<std::uint32_t>& counts,
                            std::uint32_t seq,
                            std::vector<std::uint8_t>& bytes) {
  packets(counts, seq, scratch_);
  bytes.clear();
  for (const auto& p : scratch_) rn::append_packet(bytes, p);
}

}  // namespace perfbench
