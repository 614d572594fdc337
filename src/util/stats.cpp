#include "util/stats.hpp"

#include <algorithm>
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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
}

void Histogram::reset() noexcept {
  std::fill(bins_.begin(), bins_.end(), std::size_t{0});
  total_ = 0;
  underflow_ = 0;
  overflow_ = 0;
}

void Histogram::add(double x) noexcept {
  ++total_;
  // Out-of-range samples are tracked only by the underflow/overflow
  // counters; folding them into the edge bins as well would double-count
  // them against total() and skew the edge bars.
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(bins_.size()));
  if (idx >= bins_.size()) idx = bins_.size() - 1;  // guard fp edge
  ++bins_[idx];
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      bins_.size() != other.bins_.size()) {
    throw std::invalid_argument("Histogram::merge: layout mismatch");
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_.size());
}

double Histogram::bin_hi(std::size_t i) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) / static_cast<double>(bins_.size());
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = std::max(underflow_, overflow_);
  for (auto c : bins_) peak = std::max(peak, c);
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(4);
  const auto row = [&](const std::string& label, std::size_t count) {
    const auto bar = peak == 0 ? std::size_t{0} : count * width / peak;
    out << label << ' ' << std::string(std::max<std::size_t>(bar, 1), '#')
        << ' ' << count << '\n';
  };
  if (underflow_ > 0) {
    std::ostringstream label;
    label.setf(std::ios::fixed);
    label.precision(4);
    label << "< " << lo_ << "        ";
    row(label.str(), underflow_);
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    std::ostringstream label;
    label.setf(std::ios::fixed);
    label.precision(4);
    label << '[' << bin_lo(i) << ", " << bin_hi(i) << ")";
    row(label.str(), bins_[i]);
  }
  if (overflow_ > 0) {
    std::ostringstream label;
    label.setf(std::ios::fixed);
    label.precision(4);
    label << ">= " << hi_ << "       ";
    row(label.str(), overflow_);
  }
  return out.str();
}

std::string Histogram::to_json() const {
  std::ostringstream out;
  out << "{\"lo\": ";
  append_double(out, lo_);
  out << ", \"hi\": ";
  append_double(out, hi_);
  out << ", \"bins\": [";
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (i) out << ", ";
    out << bins_[i];
  }
  out << "], \"underflow\": " << underflow_ << ", \"overflow\": " << overflow_
      << ", \"total\": " << total_ << "}";
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
  if (v < 0.0 || v != std::floor(v)) fail("key '" + key + "' is not a count");
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
  const JsonScan scan(json, "stats");
  const double lo = scan.number("lo");
  const double hi = scan.number("hi");
  const auto bins = scan.counts("bins");
  Histogram h(lo, hi, bins.size());  // validates hi > lo, bins > 0
  h.bins_.assign(bins.begin(), bins.end());
  h.underflow_ = scan.count("underflow");
  h.overflow_ = scan.count("overflow");
  h.total_ = scan.count("total");
  std::size_t in_range = 0;
  for (auto c : bins) in_range += c;
  if (in_range + h.underflow_ + h.overflow_ != h.total_) {
    throw std::invalid_argument("stats JSON: histogram totals inconsistent");
  }
  return h;
}

}  // namespace reads::util
