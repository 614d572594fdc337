#include "autotune/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace reads::autotune {

namespace {

constexpr double kLogEps = 1e-9;
/// Ridge penalty on the normal equations, scaled by the observation count
/// so the effective prior stays constant as data accumulates.
constexpr double kRidgeLambda = 1e-4;

/// Average ranks (1-based) with ties sharing the mean of their positions.
std::vector<double> average_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // positions i..j (0-based) tie; their shared rank is the average of
    // the 1-based positions.
    const double rank = 0.5 * (static_cast<double>(i) +
                               static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

Surrogate::Surrogate(SurrogateConfig config) : cfg_(config) {}

void Surrogate::observe(const FeatureVec& features, double cost) {
  const double y = std::log(std::max(cost, 0.0) + kLogEps);
  std::lock_guard lock(mutex_);
  for (std::size_t r = 0; r < kFeatureCount; ++r) {
    for (std::size_t c = 0; c < kFeatureCount; ++c) {
      xtx_[r][c] += features[r] * features[c];
    }
    xty_[r] += features[r] * y;
  }
  ++count_;
  dirty_ = true;
}

std::optional<double> Surrogate::predict(const FeatureVec& features) const {
  std::lock_guard lock(mutex_);
  if (count_ < cfg_.min_observations) return std::nullopt;
  refresh_locked();
  if (!solved_) return std::nullopt;
  double y = 0.0;
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    y += weights_[i] * features[i];
  }
  return std::exp(y) - kLogEps;
}

std::size_t Surrogate::observations() const {
  std::lock_guard lock(mutex_);
  return count_;
}

void Surrogate::refresh_locked() const {
  if (!dirty_) return;
  dirty_ = false;
  solved_ = false;

  // Dense Gaussian elimination with partial pivoting on the ridge-damped
  // normal equations. kFeatureCount is tiny, so O(K^3) is free.
  constexpr std::size_t k = kFeatureCount;
  std::array<std::array<double, k + 1>, k> a{};
  const double damp = kRidgeLambda * static_cast<double>(count_);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) a[r][c] = xtx_[r][c];
    a[r][r] += damp;
    a[r][k] = xty_[r];
  }
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return;  // singular; stay unsolved
    std::swap(a[col], a[pivot]);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= k; ++c) a[r][c] -= f * a[col][c];
    }
  }
  for (std::size_t i = 0; i < k; ++i) weights_[i] = a[i][k] / a[i][i];
  solved_ = true;
}

double spearman(const std::vector<std::pair<double, double>>& pairs) {
  const std::size_t n = pairs.size();
  if (n < 2) return 0.0;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = pairs[i].first;
    ys[i] = pairs[i].second;
  }
  const auto rx = average_ranks(xs);
  const auto ry = average_ranks(ys);
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += rx[i];
    my += ry[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = rx[i] - mx;
    const double dy = ry[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace reads::autotune
