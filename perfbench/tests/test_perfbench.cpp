// Arithmetic of the control-tick benchmark: percentile choice, seeded
// schedule reproducibility, tick material and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <vector>

#include "blm/machine.hpp"
#include "net/assembler.hpp"
#include "net/wire.hpp"
#include "schedule.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRankOnKnownSamples) {
  const auto v = iota_values(1000);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(percentile(iota_values(1), 99.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  auto v = iota_values(1234);
  std::reverse(v.begin(), v.end());
  std::rotate(v.begin(), v.begin() + 77, v.end());
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 1222.0);  // ceil(0.99 * 1234)
}

TEST(Percentile, MatchesUtilPercentiles) {
  // The benchmark's figures and the repository's (router and replica e2e)
  // come from the same rank rule, so their differences are meaningful.
  for (std::size_t n : {1u, 2u, 7u, 99u, 100u, 101u, 999u, 1000u, 1234u, 4321u}) {
    const auto v = iota_values(n);
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      reads::util::Percentiles q;
      for (double x : v) q.add(x);
      const double want = q.percentile(p);
      EXPECT_DOUBLE_EQ(percentile(v, p), want) << n << " " << p;
      EXPECT_EQ(samples_beyond(n, p),
                static_cast<std::size_t>(std::count_if(
                    v.begin(), v.end(), [&](double x) { return x > want; })))
          << n << " " << p;
    }
  }
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  // Exactly ten samples lie above the p99 of 1,000: the smallest run the
  // benchmark accepts.
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_FALSE(percentile_supported(999, 99.0));
  // The samples beyond really are strictly above the reported value.
  const auto v = iota_values(1000);
  const double p99 = percentile(v, 99.0);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }),
            10);
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_EQ(samples_beyond(0, 99.0), 0u);
}

TEST(Windowed, MediansOverWindowsOfAThousandAnsweredTicks) {
  ASSERT_EQ(kWindowAnswered, 1000u);
  // Window k (1..3) answers latencies k * (1..1000) ms with its first
  // 100 * k ticks on time, plus 50 sheds; a trailing partial window of 999
  // answered ticks is dropped.
  std::vector<TickSample> ticks;
  for (int k = 1; k <= 3; ++k) {
    for (int i = 0; i < 50; ++i) ticks.push_back({false, false, 0.0});
    for (int i = 1; i <= 1000; ++i) {
      ticks.push_back({true, i <= 100 * k, static_cast<double>(k * i)});
    }
  }
  for (int i = 0; i < 999; ++i) ticks.push_back({true, true, 1e6});
  const WindowedTicks w = windowed(ticks);
  EXPECT_EQ(w.windows, 3u);
  EXPECT_DOUBLE_EQ(w.p50_ms, 1000.0);  // window p50s 500, 1000, 1500
  EXPECT_DOUBLE_EQ(w.p99_ms, 1980.0);  // window p99s 990, 1980, 2970
  EXPECT_DOUBLE_EQ(w.on_time, 200.0 / 1050.0);
  EXPECT_EQ(windowed(std::vector<TickSample>(999, {true, true, 1.0})).windows,
            0u);
}

ScheduleParams params(std::uint64_t seed) {
  return {.streams = 4, .duration_ns = 200'000'000, .seed = seed};
}

bool same_ticks(const std::vector<TickSpec>& a, const std::vector<TickSpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TickSpec& x, const TickSpec& y) {
                      return x.due_ns == y.due_ns && x.stream == y.stream &&
                             x.seq == y.seq && x.frame == y.frame;
                    });
}

TEST(Schedule, SameSeedSameDueTimesAndFrames) {
  EXPECT_TRUE(same_ticks(make_schedule(params(7)), make_schedule(params(7))));
  EXPECT_FALSE(same_ticks(make_schedule(params(7)), make_schedule(params(8))));
  EXPECT_EQ(make_frame_pool(42, 7), make_frame_pool(42, 7));
  EXPECT_NE(make_frame_pool(42, 7), make_frame_pool(42, 8));
}

TEST(Schedule, FramesAreMachineModelReadings) {
  // The pool is the machine model's frames, not independent noise: the
  // same machine and event seeds give the same readings.
  const auto pool = make_frame_pool(42, 7);
  ASSERT_EQ(pool.size(), kFramePool);
  const reads::blm::MachineModel machine(
      reads::blm::MachineConfig::fermilab_like(), 42);
  reads::util::Xoshiro256 rng(reads::util::derive_seed(7, 0xf4a3));
  const auto truth = machine.sample_truth(rng);
  const auto readings = machine.readings(truth, rng);
  ASSERT_EQ(pool[0].size(), readings.size());
  for (std::size_t m = 0; m < readings.size(); ++m) {
    ASSERT_EQ(pool[0][m], reads::net::encode_reading(readings[m]));
  }
}

TEST(Schedule, EveryStreamTicksEveryPeriodInDueOrder) {
  const auto p = params(3);
  const auto ticks = make_schedule(p);
  ASSERT_FALSE(ticks.empty());
  EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end(),
                             [](const TickSpec& a, const TickSpec& b) {
                               return a.due_ns < b.due_ns;
                             }));
  std::vector<std::vector<TickSpec>> per_stream(p.streams);
  for (const auto& t : ticks) {
    ASSERT_LT(t.stream, p.streams);
    ASSERT_LT(t.frame, kFramePool);
    ASSERT_GE(t.due_ns, 0);
    ASSERT_LT(t.due_ns, p.duration_ns);
    per_stream[t.stream].push_back(t);
  }
  for (const auto& s : per_stream) {
    ASSERT_GE(s.size(), 66u);  // 200 ms / 3 ms
    EXPECT_LT(s.front().due_ns, kPeriodNs);
    for (std::size_t k = 0; k < s.size(); ++k) {
      EXPECT_EQ(s[k].seq, k);
      if (k > 0) {
        EXPECT_EQ(s[k].due_ns - s[k - 1].due_ns, kPeriodNs);
      }
    }
  }
  // Streams are staggered evenly: a quarter period apart for four streams.
  for (std::uint32_t s = 1; s < p.streams; ++s) {
    EXPECT_NEAR(per_stream[s].front().due_ns - per_stream[s - 1].front().due_ns,
                kPeriodNs / p.streams, 1);
  }
}

TEST(TickEncoder, SerializedTickDecodesAndAssemblesToThePoolFrame) {
  reads::net::AssemblerParams ap;
  const auto pool = make_frame_pool(42, 11);
  TickEncoder encoder(ap.monitors, ap.hubs);
  std::vector<std::uint8_t> bytes;
  encoder.serialize(pool[1], 5, bytes);

  reads::net::PacketDecoder decoder;
  ASSERT_TRUE(decoder.feed(bytes));
  std::vector<reads::net::Delivery> deliveries(ap.hubs);
  for (auto& d : deliveries) {
    auto p = decoder.next();
    ASSERT_TRUE(p.has_value());
    d.packet = std::move(*p);
  }
  EXPECT_FALSE(decoder.next().has_value());
  reads::net::FrameAssembler assembler(ap);
  reads::net::AssembledFrame frame;
  assembler.assemble_into(5, deliveries, frame);
  EXPECT_TRUE(frame.complete());
  EXPECT_EQ(assembler.counters().total_rejects(), 0u);
  for (std::size_t m = 0; m < ap.monitors; ++m) {
    ASSERT_EQ(frame.raw[m],
              static_cast<float>(reads::net::decode_reading(pool[1][m])));
  }
}

Span span(std::int64_t start, std::int64_t end, Layer layer = Layer::kDecode) {
  Span s;
  s.layer = layer;
  s.parent = Layer::kTick;
  s.tick = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, ParentMinusUnionOfChildren) {
  const Span parent = span(0, 100, Layer::kTick);
  EXPECT_EQ(self_time_ns(parent, {}), 100);
  const std::vector<Span> disjoint = {span(10, 20), span(50, 70)};
  EXPECT_EQ(self_time_ns(parent, disjoint), 70);
  // Overlapping children count their union once.
  const std::vector<Span> overlap = {span(10, 40), span(30, 60), span(35, 50)};
  EXPECT_EQ(self_time_ns(parent, overlap), 50);
  // Children spilling past the parent only count inside it; touching
  // intervals merge.
  const std::vector<Span> spill = {span(-20, 10), span(90, 150), span(10, 15)};
  EXPECT_EQ(self_time_ns(parent, spill), 75);
  const std::vector<Span> covering = {span(-5, 200)};
  EXPECT_EQ(self_time_ns(parent, covering), 0);
}

TEST(SelfTime, TickSelfTimeMatchesChildrenByTick) {
  std::vector<Span> spans = {span(0, 100, Layer::kTick), span(0, 30),
                             span(30, 40, Layer::kSubmit)};
  Span other = span(200, 260, Layer::kTick);
  other.tick = 2;
  spans.push_back(other);
  Span unrelated = span(0, 100, Layer::kInfer);  // not a tick child
  unrelated.parent = Layer::kNone;
  spans.push_back(unrelated);
  const auto self = tick_self_ms(spans);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_DOUBLE_EQ(self[0], 60e-6);
  EXPECT_DOUBLE_EQ(self[1], 60e-6);
}

TEST(Spans, WriteReadRoundTripAndPerFrameDurations) {
  SpanLog log;
  log.add(Layer::kInfer, 1000, 5000, kNoTick, Layer::kNone, 4);
  log.add(Layer::kDecode, 10, 30, 42, Layer::kTick);
  const std::string path = testing::TempDir() + "perfbench_spans.txt";
  write_spans(path, log.spans());
  const auto back = read_spans(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].tick, kNoTick);
  EXPECT_EQ(back[0].frames, 4u);
  EXPECT_EQ(back[1].tick, 42u);
  EXPECT_EQ(back[1].parent, Layer::kTick);
  EXPECT_EQ(layer_durations(back, Layer::kInfer, 1.0, true),
            std::vector<double>{1000.0});
  EXPECT_EQ(layer_durations(back, Layer::kDecode, 1e-3),
            std::vector<double>{0.02});
}

}  // namespace
}  // namespace perfbench
