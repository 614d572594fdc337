// Unit tests for util: RNG determinism and distribution sanity, running
// stats, percentiles, histograms, thread pool, tables, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#include "mutate.hpp"

namespace {

using namespace reads::util;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitMix64MatchesReferenceOutput) {
  // First output of the reference SplitMix64 for seed 0. Every seeded
  // stream in the project derives from this generator, and its finalizer
  // (util::mix64) also places streams on the cluster hash ring.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounded) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Xoshiro256 rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalIsPositive) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256 rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, DeriveSeedDecorrelatesPurposes) {
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_EQ(p.percentile(50), 50.0);
  EXPECT_EQ(p.percentile(99), 99.0);
  EXPECT_EQ(p.percentile(100), 100.0);
  EXPECT_EQ(p.percentile(0), 1.0);
}

TEST(Percentiles, InsertAfterQueryResorts) {
  Percentiles p;
  p.add(10.0);
  EXPECT_EQ(p.median(), 10.0);
  p.add(1.0);
  p.add(2.0);
  EXPECT_EQ(p.median(), 2.0);
}

TEST(Percentiles, ThrowsOnEmpty) {
  Percentiles p;
  EXPECT_THROW(p.percentile(50), std::logic_error);
}

TEST(Histogram, BinningAndOutOfRangeCounters) {
  Histogram h;
  h.add(1.0);
  h.add(2.9);
  constexpr std::size_t kLast = Histogram::kBuckets - 1;
  // Below 2^kMinExp, zero and negatives included: bucket 0.
  for (double v : {0.0, -0.0, -1.0, -std::numeric_limits<double>::infinity(),
                   std::ldexp(1.0, Histogram::kMinExp - 1),
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(Histogram::bucket_of(v), 0u) << v;
    h.add(v);
  }
  // At or above 2^kMaxExp, +inf and NaN: the last bucket.
  for (double v : {std::ldexp(1.0, Histogram::kMaxExp), 1e300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Histogram::bucket_of(v), kLast) << v;
    h.add(v);
  }
  EXPECT_EQ(h.total(), 13u);
  EXPECT_EQ(h.count(0), 6u);
  EXPECT_EQ(h.count(kLast), 5u);
  EXPECT_EQ(h.count(Histogram::bucket_of(1.0)), 1u);
  EXPECT_EQ(h.count(Histogram::bucket_of(2.9)), 1u);
  EXPECT_EQ(Histogram::bucket_lo(0), std::ldexp(1.0, Histogram::kMinExp));
  EXPECT_EQ(Histogram::bucket_hi(kLast), std::ldexp(1.0, Histogram::kMaxExp));
}

TEST(Histogram, InRangeValuesLieInsideTheirBucket) {
  // Every bucket edge, the double just below it, and random values over
  // the whole range.
  const auto expect_inside = [](double v) {
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::bucket_lo(b), v) << v;
    EXPECT_LT(v, Histogram::bucket_hi(b)) << v;
  };
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    expect_inside(std::nextafter(Histogram::bucket_hi(b), 0.0));
  }
  Xoshiro256 rng(91);
  for (int i = 0; i < 100'000; ++i) {
    expect_inside(std::exp2(rng.uniform(Histogram::kMinExp,
                                        Histogram::kMaxExp)));
  }
}

TEST(Histogram, NoBucketIsWiderThanItsShareOfItsLowerEdge) {
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const double lo = Histogram::bucket_lo(b);
    const double hi = Histogram::bucket_hi(b);
    EXPECT_LT(lo, hi) << b;
    EXPECT_LE(hi - lo, lo / static_cast<double>(Histogram::kSubBuckets)) << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_hi(b - 1), lo) << b;
    }
  }
}

// Every sample is counted once: out-of-range samples sit in the end
// buckets, not beside them, so the counts sum to total().
TEST(Histogram, OutOfRangeSamplesAreNotDoubleCounted) {
  Histogram h;
  for (int i = 0; i < 7; ++i) h.add(-0.5);
  for (int i = 0; i < 3; ++i) h.add(1e12);
  h.add(0.1);
  h.add(0.9);
  std::size_t in_buckets = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) in_buckets += h.count(b);
  EXPECT_EQ(in_buckets, h.total());
  EXPECT_EQ(h.total(), 12u);
  const std::string chart = h.ascii();
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 4);
  EXPECT_NE(chart.find(" 7\n"), std::string::npos);
  EXPECT_NE(chart.find(" 3\n"), std::string::npos);
}

TEST(Histogram, MergeEqualsOneHistogramOfTheUnion) {
  Histogram a;
  Histogram b;
  Histogram both;
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.lognormal(0.0, 3.0) - 0.01;  // some below range
    (i % 3 == 0 ? a : b).add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a, both);
  EXPECT_EQ(a.to_json(), both.to_json());
}

TEST(Histogram, JsonRoundTripPreservesEverything) {
  Histogram h;
  Xoshiro256 rng(77);
  for (int i = 0; i < 500; ++i) h.add(rng.normal(2.5, 2.0));  // some <= 0
  h.add(-100.0);
  h.add(1e9);
  ASSERT_GT(h.count(0), 0u);
  ASSERT_GT(h.count(Histogram::kBuckets - 1), 0u);

  const auto json = h.to_json();
  const auto back = Histogram::from_json(json);
  EXPECT_EQ(back, h);
  // Re-serializing the reconstruction is byte-identical: the export uses
  // round-trip-exact float formatting, so to_json is a fixed point.
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(Histogram::from_json(Histogram{}.to_json()), Histogram{});
}

TEST(Histogram, FromJsonRejectsMalformed) {
  const auto rejects = [](const std::string& json) {
    EXPECT_THROW(Histogram::from_json(json), std::invalid_argument) << json;
  };
  rejects("not json");
  rejects("{\"lo\": [1], \"hi\": [1.03125]}");
  // A valid two-bucket export: [1, 1.03125) holds 2, [2, 2.0625) holds 1.
  const std::string ok =
      "{\"lo\": [1, 2], \"hi\": [1.03125, 2.0625], \"counts\": [2, 1], "
      "\"total\": 3}";
  EXPECT_EQ(Histogram::from_json(ok).count(Histogram::bucket_of(1.0)), 2u);
  // Arrays of different lengths.
  rejects("{\"lo\": [1, 2], \"hi\": [1.03125], \"counts\": [2, 1], "
          "\"total\": 3}");
  rejects("{\"lo\": [1, 2], \"hi\": [1.03125, 2.0625], \"counts\": [3], "
          "\"total\": 3}");
  // A lo that is not a bucket edge, in range or out of it.
  rejects("{\"lo\": [1.01], \"hi\": [1.03125], \"counts\": [1], "
          "\"total\": 1}");
  rejects("{\"lo\": [0], \"hi\": [0.0009765625], \"counts\": [1], "
          "\"total\": 1}");
  rejects("{\"lo\": [8388608], \"hi\": [8650752], \"counts\": [1], "
          "\"total\": 1}");
  rejects("{\"lo\": [nan], \"hi\": [nan], \"counts\": [1], \"total\": 1}");
  // A wrong hi.
  rejects("{\"lo\": [1], \"hi\": [1.0625], \"counts\": [1], \"total\": 1}");
  // A bucket listed twice, or out of order.
  rejects("{\"lo\": [1, 1], \"hi\": [1.03125, 1.03125], \"counts\": [1, 1], "
          "\"total\": 2}");
  rejects("{\"lo\": [2, 1], \"hi\": [2.0625, 1.03125], \"counts\": [1, 2], "
          "\"total\": 3}");
  // A count that is negative, fractional or beyond 64 bits.
  rejects("{\"lo\": [1], \"hi\": [1.03125], \"counts\": [-1], \"total\": 1}");
  rejects("{\"lo\": [1], \"hi\": [1.03125], \"counts\": [1.5], "
          "\"total\": 1}");
  rejects("{\"lo\": [1], \"hi\": [1.03125], \"counts\": [1e300], "
          "\"total\": 1}");
  // A total that does not match the counts.
  rejects("{\"lo\": [1, 2], \"hi\": [1.03125, 2.0625], \"counts\": [2, 1], "
          "\"total\": 99}");
  rejects("{\"lo\": [], \"hi\": [], \"counts\": [], \"total\": 1}");
}

// Histogram snapshots cross a socket inside replica stats replies. Damaged
// copies of a real export must parse (into something that re-exports
// consistently) or throw std::invalid_argument; nothing else may happen.
TEST(Histogram, MutatedJsonParsesOrThrowsInvalidArgument) {
  Histogram h;
  Xoshiro256 values(3);
  for (int i = 0; i < 200; ++i) h.add(values.lognormal(0.5, 2.0));
  h.add(-1.0);
  h.add(1e30);
  const std::string valid = h.to_json();

  Xoshiro256 rng(0xF1A7u);
  std::size_t rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string bytes = reads::test::mutate(valid, rng);
    try {
      const auto back = Histogram::from_json(bytes);
      EXPECT_EQ(Histogram::from_json(back.to_json()), back) << bytes;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(JsonScan, MissingKeyAndNonCountsThrow) {
  const std::string js = "{\"a\": 1.5, \"b\": -2, \"c\": 3}";
  const JsonScan scan(js, "test");
  EXPECT_FALSE(scan.has("d"));
  EXPECT_THROW(scan.count("d"), std::invalid_argument);
  EXPECT_THROW(scan.count("a"), std::invalid_argument);  // fractional
  EXPECT_THROW(scan.count("b"), std::invalid_argument);  // negative
  EXPECT_DOUBLE_EQ(scan.number("a"), 1.5);
  EXPECT_EQ(scan.count("c"), 3u);
}

TEST(JsonScan, LooksUpFromAnOffsetAndMatchesWholeKeys) {
  const std::string js =
      "{\"x\": {\"n\": 1}, \"y\": {\"n\": 2}, \"name\": \"redispatched\", "
      "\"redispatched_jobs\": 5, \"redispatched\": 7}";
  const JsonScan scan(js, "test");
  EXPECT_EQ(scan.count("n"), 1u);
  EXPECT_EQ(scan.count("n", js.find("\"y\"")), 2u);
  EXPECT_EQ(scan.enclosed(scan.value_pos("y")), "{\"n\": 2}");
  // Neither a longer key nor a string value is the key itself.
  EXPECT_EQ(scan.count("redispatched"), 7u);
  const std::string jobs_only = "{\"redispatched_jobs\": 5}";
  EXPECT_FALSE(JsonScan(jobs_only, "test").has("redispatched"));
}

TEST(JsonScan, QuotedStringsCannotCloseAnEnclosedValue) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c]\n\x01"), "\"a\\\"b\\\\c]\\u000a\\u0001\"");
  const std::string js = "{\"nodes\": [{\"endpoint\": " +
                         json_quote("uds:/x\"]}\\") + "}], \"n\": 1}";
  const JsonScan scan(js, "test");
  const auto pos = scan.value_pos("nodes");
  EXPECT_EQ(scan.enclosed(pos), js.substr(pos, js.find(", \"n\"") - pos));
  EXPECT_EQ(scan.count("n"), 1u);
}

TEST(Percentiles, SummaryJsonNearestRankAndEmpty) {
  Percentiles p;
  for (int i = 1; i <= 1000; ++i) p.add(static_cast<double>(i));
  const auto json = p.summary_json();
  EXPECT_NE(json.find("\"count\": 1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 990"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99.97\": 1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 1000"), std::string::npos) << json;

  Percentiles empty;
  EXPECT_EQ(empty.summary_json(), "{\"count\": 0}");
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, LocalPoolIndependentOfGlobal) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_count(), 2u);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ConcurrentParallelForCallersShareOnePool) {
  // Shutdown-safety audit, part 1: many threads driving the same pool's
  // blocking parallel_for concurrently must neither lose indices nor race.
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kIters = 25;
  constexpr std::size_t kRange = 200;
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (std::size_t it = 0; it < kIters; ++it) {
        pool.parallel_for(0, kRange, [&](std::size_t) { hits.fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(hits.load(), kCallers * kIters * kRange);
}

TEST(ThreadPool, ConstructDestroyChurnDrainsAllWork) {
  // Shutdown-safety audit, part 2: destruction immediately after blocking
  // work must drain and join cleanly every time (no stranded tasks, no
  // use-after-free; TSan verifies the absence of races in check.sh).
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> done{0};
    ThreadPool pool(2);
    pool.parallel_for(0, 50, [&](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 50u);
  }  // ~ThreadPool here
}

TEST(ThreadPool, SetGlobalThreadsAfterGlobalExistsThrows) {
  ThreadPool::global();  // ensure the lazy singleton is constructed
  EXPECT_THROW(ThreadPool::set_global_threads(2), std::logic_error);
}

TEST(Table, RendersAlignedAndCsvEscapes) {
  Table t({"a", "b"});
  t.add_row({"x", "1,2"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(t.to_csv().find("\"1,2\""), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.315, 1), "31.5%");
}

TEST(Cli, ParsesTypesAndDefaults) {
  const char* argv[] = {"prog", "--n=5", "--x=2.5", "--name=abc", "--flag"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_NO_THROW(cli.check_unknown());
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  cli.get_int("n", 0);
  EXPECT_THROW(cli.check_unknown(), std::invalid_argument);
}

TEST(Cli, RejectsNonFlagArgument) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

// ----------------------------------------------- reset (re-arm) behaviour

TEST(RunningStats, ResetForgetsEverySample) {
  RunningStats s;
  for (double v : {3.0, -1.0, 12.0}) s.add(v);
  ASSERT_EQ(s.count(), 3u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
  // The re-armed window behaves exactly like a fresh instance.
  s.add(4.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Percentiles, ResetDropsSamplesAndKeepsCapacity) {
  Percentiles p;
  p.reserve(64);
  for (double v : {9.0, 1.0, 5.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
  const auto cap = p.values().capacity();
  p.reset();
  EXPECT_EQ(p.count(), 0u);
  EXPECT_GE(p.values().capacity(), cap);  // buffer retained for re-arming
  EXPECT_THROW(p.percentile(50.0), std::logic_error);
  p.add(2.0);
  p.add(8.0);
  EXPECT_DOUBLE_EQ(p.percentile(100.0), 8.0);
}

}  // namespace
