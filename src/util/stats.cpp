#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace reads::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void Percentiles::ensure_sorted() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Percentiles::percentile(double p) {
  if (values_.empty()) throw std::logic_error("percentile of empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  ensure_sorted();
  if (p == 0.0) return values_.front();
  const auto n = static_cast<double>(values_.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values_[std::min(values_.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string json_double(double v) {
  std::ostringstream s;
  s.precision(std::numeric_limits<double>::max_digits10);
  s << v;
  return s.str();
}

std::string json_quote(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void Percentiles::merge(const Percentiles& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  if (!other.values_.empty()) sorted_ = false;
}

namespace {

/// Round-trip decimal of the double (snapshots get re-parsed).
void append_double(std::ostringstream& out, double v) {
  out << json_double(v);
}

/// Trim a percent label: 99.0 -> "p99", 99.97 -> "p99.97".
std::string percent_key(double p) {
  std::ostringstream s;
  s << 'p' << p;
  return s.str();
}

}  // namespace

std::string Percentiles::summary_json(std::initializer_list<double> percents) {
  std::ostringstream out;
  out << "{\"count\": " << values_.size();
  if (!values_.empty()) {
    for (double p : percents) {
      out << ", \"" << percent_key(p) << "\": ";
      append_double(out, percentile(p));
    }
    out << ", \"max\": ";
    append_double(out, percentile(100.0));
  }
  out << "}";
  return out.str();
}

namespace {

// An in-range double's exponent field and top mantissa bits, read as one
// integer, count buckets from 2^kMinExp: bucket i's lower edge is the double
// whose bits are (kFirstBucket + i) << kBucketShift.
static_assert(std::has_single_bit(Histogram::kSubBuckets));
constexpr int kBucketShift = 52 - std::countr_zero(Histogram::kSubBuckets);
constexpr std::uint64_t kFirstBucket =
    static_cast<std::uint64_t>(1023 + Histogram::kMinExp)
    << std::countr_zero(Histogram::kSubBuckets);

}  // namespace

double Histogram::bucket_lo(std::size_t i) noexcept {
  return std::bit_cast<double>((kFirstBucket + i) << kBucketShift);
}

std::size_t Histogram::bucket_of(double x) noexcept {
  // NaN fails both comparisons, so it lands with +inf in the last bucket.
  if (!(x < bucket_lo(kBuckets))) return kBuckets - 1;
  if (!(x >= bucket_lo(0))) return 0;
  return static_cast<std::size_t>(
      (std::bit_cast<std::uint64_t>(x) >> kBucketShift) - kFirstBucket);
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::string Histogram::ascii(std::size_t width) const {
  const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(4);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = counts_[i] * width / peak;
    out << '[' << bucket_lo(i) << ", " << bucket_hi(i) << ") "
        << std::string(std::max<std::size_t>(bar, 1), '#') << ' '
        << counts_[i] << '\n';
  }
  return out.str();
}

std::string Histogram::to_json() const {
  std::ostringstream lo;
  std::ostringstream hi;
  std::ostringstream counts;
  const char* sep = "";
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    lo << sep << json_double(bucket_lo(i));
    hi << sep << json_double(bucket_hi(i));
    counts << sep << counts_[i];
    sep = ", ";
  }
  std::ostringstream out;
  out << "{\"lo\": [" << lo.str() << "], \"hi\": [" << hi.str()
      << "], \"counts\": [" << counts.str() << "], \"total\": " << total_
      << "}";
  return out.str();
}

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

}  // namespace

std::size_t JsonScan::find(const std::string& key,
                           std::size_t from) const noexcept {
  const std::string needle = "\"" + key + "\"";
  for (auto k = text_.find(needle, from); k != std::string::npos;
       k = text_.find(needle, k + 1)) {
    auto p = k + needle.size();
    while (p < text_.size() && is_space(text_[p])) ++p;
    if (p >= text_.size() || text_[p] != ':') continue;  // a string value
    ++p;
    while (p < text_.size() && is_space(text_[p])) ++p;
    return p;
  }
  return std::string::npos;
}

void JsonScan::fail(const std::string& msg) const {
  throw std::invalid_argument(what_ + " JSON: " + msg);
}

std::size_t JsonScan::value_pos(const std::string& key,
                                std::size_t from) const {
  const auto p = find(key, from);
  if (p == std::string::npos) fail("missing key '" + key + "'");
  return p;
}

double JsonScan::number(const std::string& key, std::size_t from) const {
  const char* start = text_.c_str() + value_pos(key, from);
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) fail("key '" + key + "' is not a number");
  return v;
}

std::uint64_t JsonScan::as_count(double v, const std::string& key) const {
  // The upper bound also keeps the uint64 conversion defined (inf, 1e300).
  if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v)) {
    fail("key '" + key + "' is not a count");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint64_t JsonScan::count(const std::string& key, std::size_t from) const {
  return as_count(number(key, from), key);
}

std::vector<double> JsonScan::numbers(const std::string& key) const {
  auto p = value_pos(key);
  if (text_[p] != '[') fail("key '" + key + "' is not an array");
  ++p;
  std::vector<double> out;
  for (;;) {
    while (p < text_.size() && (is_space(text_[p]) || text_[p] == ',')) ++p;
    if (p >= text_.size()) fail("unterminated array");
    if (text_[p] == ']') return out;
    const char* start = text_.c_str() + p;
    char* end = nullptr;
    out.push_back(std::strtod(start, &end));
    if (end == start) fail("bad array element");
    p += static_cast<std::size_t>(end - start);
  }
}

std::vector<std::uint64_t> JsonScan::counts(const std::string& key) const {
  std::vector<std::uint64_t> out;
  for (double v : numbers(key)) out.push_back(as_count(v, key));
  return out;
}

std::string JsonScan::enclosed(std::size_t pos) const {
  const char open = pos < text_.size() ? text_[pos] : '\0';
  if (open != '{' && open != '[') fail("expected '{' or '['");
  const char close = open == '{' ? '}' : ']';
  std::size_t depth = 0;
  bool in_string = false;
  for (std::size_t q = pos; q < text_.size(); ++q) {
    const char c = text_[q];
    if (in_string) {
      if (c == '\\') {
        ++q;  // the escaped character cannot end the string
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == open) ++depth;
    if (c == close && --depth == 0) {
      return text_.substr(pos, q - pos + 1);
    }
  }
  fail(std::string("unbalanced '") + open + "'");
}

Histogram Histogram::from_json(const std::string& json) {
  const auto bad = [](const char* msg) {
    throw std::invalid_argument(std::string("stats JSON: histogram ") + msg);
  };
  const JsonScan scan(json, "stats");
  const auto lo = scan.numbers("lo");
  const auto hi = scan.numbers("hi");
  const auto counts = scan.counts("counts");
  if (hi.size() != lo.size() || counts.size() != lo.size()) {
    bad("arrays differ in length");
  }
  Histogram h;
  std::size_t next = 0;  // buckets are listed once each, ascending
  for (std::size_t k = 0; k < lo.size(); ++k) {
    const std::size_t i = bucket_of(lo[k]);
    if (bucket_lo(i) != lo[k]) bad("lo is not a bucket edge");
    if (hi[k] != bucket_hi(i)) bad("hi does not close its bucket");
    if (i < next) bad("bucket listed twice or out of order");
    h.counts_[i] = counts[k];
    h.total_ += counts[k];
    next = i + 1;
  }
  if (scan.count("total") != h.total_) bad("total does not match its counts");
  return h;
}

}  // namespace reads::util
