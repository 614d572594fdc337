// Content hashing for immutable artifacts.
//
// The model registry and the pretrained weight cache key artifacts by the
// bytes of their parameters, so "same hash" must mean "same bits" across
// runs and across processes. FNV-1a/64 is used for its simplicity and
// stable definition — this is an integrity/identity digest, not a
// cryptographic one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace reads::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold `len` bytes into a running FNV-1a state (start from kFnvOffset).
constexpr std::uint64_t fnv1a64(const unsigned char* bytes, std::size_t len,
                                std::uint64_t state = kFnvOffset) noexcept {
  for (std::size_t i = 0; i < len; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}

inline std::uint64_t fnv1a64(const void* bytes, std::size_t len,
                             std::uint64_t state = kFnvOffset) noexcept {
  return fnv1a64(static_cast<const unsigned char*>(bytes), len, state);
}

/// The SplitMix64 output finalizer: a bijective avalanche of one word.
/// SplitMix64::next() applies it to its advanced state; the hash ring
/// applies it to FNV-1a digests.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace reads::util
