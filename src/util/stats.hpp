// Streaming statistics and histograms used by the latency/accuracy harnesses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace reads::util {

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Forget every sample (re-arm for a new measurement window).
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact percentile over a retained sample vector. Retention is fine at the
/// scales we run (<= a few million doubles); nearest-rank definition.
class Percentiles {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t count() const noexcept { return values_.size(); }

  /// Drop all samples but keep the retained capacity, so a per-epoch
  /// metrics window can be re-armed without reallocating its sample buffer
  /// (serve/lifecycle reset distributions at every model-swap epoch).
  void reset() noexcept {
    values_.clear();
    sorted_ = false;
  }

  /// p in [0, 100]. Sorts lazily on first query after the last insertion.
  double percentile(double p);
  double median() { return percentile(50.0); }

  /// JSON object of nearest-rank percentiles, e.g.
  /// {"count": 12, "p50": 1.5, "p99": 3.2, "p99.97": 3.9, "max": 4.0}.
  /// Empty samples yield {"count": 0}.
  std::string summary_json(
      std::initializer_list<double> percents = {50.0, 90.0, 99.0, 99.97});

  /// Append every retained sample from `other`; percentiles over the merged
  /// set are then exact (the cluster report folds per-process samples this
  /// way rather than averaging per-process percentiles).
  void merge(const Percentiles& other);

  const std::vector<double>& values() const noexcept { return values_; }

 private:
  void ensure_sorted();
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Log-bucketed histogram with one fixed layout, so every latency fits and
/// any two histograms merge. Each octave [2^e, 2^(e+1)) for e in
/// [kMinExp, kMaxExp) is split into kSubBuckets equal buckets, each at most
/// 1/kSubBuckets of its lower edge wide; with values in ms that spans ~1 us
/// to ~70 min. Bucket 0 also takes every value below 2^kMinExp (zero and
/// negatives included); the last bucket also takes everything at or above
/// 2^kMaxExp, +inf and NaN. The counts live inline: nothing allocates.
class Histogram {
 public:
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 22;
  static constexpr std::size_t kSubBuckets = 32;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void add(double x) noexcept {
    ++counts_[bucket_of(x)];
    ++total_;
  }

  /// Index of the bucket x lands in, read from the IEEE-754 exponent field
  /// and the top mantissa bits.
  static std::size_t bucket_of(double x) noexcept;
  /// Edges of bucket i (i < kBuckets): an in-range x lies in
  /// [bucket_lo(bucket_of(x)), bucket_hi(bucket_of(x))).
  static double bucket_lo(std::size_t i) noexcept;
  static double bucket_hi(std::size_t i) noexcept { return bucket_lo(i + 1); }

  std::size_t count(std::size_t i) const { return counts_.at(i); }
  std::size_t total() const noexcept { return total_; }

  /// Render an ASCII bar chart (one line per non-empty bucket).
  std::string ascii(std::size_t width = 50) const;

  /// The non-empty buckets as parallel flat arrays:
  ///   {"lo": [..], "hi": [..], "counts": [..], "total": n}
  /// from_json(to_json()) re-emits byte-identically (round-trip
  /// regression-tested); from_json throws std::invalid_argument on malformed
  /// input, edges that are not this layout's, a bucket listed twice or out
  /// of order, or a total that does not match the counts.
  std::string to_json() const;
  static Histogram from_json(const std::string& json);

  /// Add `other`'s counts into this histogram.
  void merge(const Histogram& other) noexcept;

  bool operator==(const Histogram&) const = default;

 private:
  std::array<std::size_t, kBuckets> counts_{};
  std::size_t total_ = 0;
};

/// The double at max_digits10 (17) significant digits, enough to
/// round-trip it (not the shortest such string). Every JSON export in this
/// codebase that may be re-parsed (histogram snapshots, cluster metrics
/// aggregation) formats doubles through this so parse(emit(x)) == x and
/// re-emitting a parsed snapshot reproduces the original text.
std::string json_double(double v);

/// `s` as a JSON string literal, quotes included: `"`, `\` and control
/// characters are escaped, so outside bytes (a replica's socket path) can
/// never end the string or the enclosing object early.
std::string json_quote(std::string_view s);

/// The one parser for the flat JSON this codebase emits (histogram, metrics
/// and router stats snapshots): finds the first `"key":` at or after `from`
/// and parses the value after it. Not a general JSON library — a key is
/// matched wherever it appears, so scan a sub-object by passing its offset
/// or its enclosed() text. Every failure (missing key, malformed value)
/// throws std::invalid_argument prefixed "<what> JSON: ".
class JsonScan {
 public:
  JsonScan(const std::string& text, std::string what)
      : text_(text), what_(std::move(what)) {}
  JsonScan(std::string&&, std::string) = delete;  // would dangle

  bool has(const std::string& key, std::size_t from = 0) const noexcept {
    return find(key, from) != std::string::npos;
  }
  /// Offset of the value after `"key":`, whitespace skipped.
  std::size_t value_pos(const std::string& key, std::size_t from = 0) const;
  double number(const std::string& key, std::size_t from = 0) const;
  /// A non-negative integral number.
  std::uint64_t count(const std::string& key, std::size_t from = 0) const;
  std::vector<double> numbers(const std::string& key) const;
  std::vector<std::uint64_t> counts(const std::string& key) const;
  /// The balanced `{...}` or `[...]` value starting at offset `pos`;
  /// brackets inside string literals do not count.
  std::string enclosed(std::size_t pos) const;

 private:
  std::size_t find(const std::string& key, std::size_t from) const noexcept;
  std::uint64_t as_count(double v, const std::string& key) const;
  [[noreturn]] void fail(const std::string& msg) const;

  const std::string& text_;
  std::string what_;
};

}  // namespace reads::util
