// Deterministic, seedable random number generation.
//
// Everything in READS-Edge that involves randomness (synthetic beam-loss
// events, weight initialization, OS-jitter sampling) draws from these
// generators so that every experiment is bit-reproducible from its seed.
// std::mt19937 is avoided because its distribution implementations are not
// specified to be identical across standard libraries; the generators and
// distributions here are fully self-contained.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

#include "util/hash.hpp"

namespace reads::util {

/// SplitMix64: tiny, fast generator mainly used to seed Xoshiro streams and
/// to derive independent per-purpose seeds from one master seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the workhorse generator. Passes BigCrush; 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (no trig, deterministic).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept {
    return -std::log(1.0 - uniform()) / lambda;
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Derive an independent seed for a named purpose from a master seed.
/// Purposes are small integers documented at the call site; the same
/// (master, purpose) pair always yields the same stream.
constexpr std::uint64_t derive_seed(std::uint64_t master,
                                    std::uint64_t purpose) noexcept {
  SplitMix64 sm(master ^ (0xA076'1D64'78BD'642FULL + purpose));
  // burn a few outputs so adjacent purposes decorrelate
  sm.next();
  sm.next();
  return sm.next();
}

}  // namespace reads::util
