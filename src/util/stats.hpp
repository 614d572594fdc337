// Streaming statistics and histograms used by the latency/accuracy harnesses.
#pragma once

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

/// Fixed-bin histogram over [lo, hi); out-of-range samples are counted by
/// the underflow/overflow tallies (and rendered as explicit `< lo` / `>= hi`
/// rows by ascii()) so nothing is silently dropped — and edge bins hold only
/// in-range samples.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  /// Zero every bin and the under/overflow tallies in place; the bin layout
  /// (lo, hi, bin count) is preserved and no memory is released, so swap
  /// epochs can re-arm histograms on the hot path without reallocation.
  void reset() noexcept;

  std::size_t bin_count(std::size_t i) const { return bins_.at(i); }
  std::size_t bins() const noexcept { return bins_.size(); }
  double bin_lo(std::size_t i) const noexcept;
  double bin_hi(std::size_t i) const noexcept;
  std::size_t total() const noexcept { return total_; }
  std::size_t underflow() const noexcept { return underflow_; }
  std::size_t overflow() const noexcept { return overflow_; }

  /// Render an ASCII bar chart (one line per non-empty bin).
  std::string ascii(std::size_t width = 50) const;

  /// JSON object carrying the full state, including the underflow/overflow
  /// tallies:
  ///   {"lo": .., "hi": .., "bins": [..], "underflow": n, "overflow": n,
  ///    "total": n}
  /// from_json(to_json()) reconstructs an identical histogram (round-trip
  /// regression-tested); from_json throws std::invalid_argument on
  /// malformed input or inconsistent totals.
  std::string to_json() const;
  static Histogram from_json(const std::string& json);

  /// Add `other`'s bins and underflow/overflow/total tallies into this
  /// histogram. Both must share the exact layout (lo, hi, bin count) —
  /// cross-process aggregation only makes sense bin-for-bin — otherwise
  /// std::invalid_argument.
  void merge(const Histogram& other);

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
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
