// Seeded byte mutation for parser fuzz tests: flips, inserts and deletes
// bytes of a valid input, so a parser of outside bytes can be held to
// "parse or throw std::invalid_argument" on damaged copies of real exports.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace reads::test {

/// `valid` with 1-4 random edits: a bit flip, a byte insertion, or the
/// deletion of 1-4 bytes.
inline std::string mutate(const std::string& valid, util::Xoshiro256& rng) {
  // Half the inserted bytes are JSON syntax, which reaches a parser's
  // structural checks more often than arbitrary bytes do.
  static constexpr char kJsonBytes[] = "0123456789-+.eE,:[]{}\" ";
  std::string s = valid;
  const auto edits = 1 + rng.uniform_int(4);
  for (std::uint64_t e = 0; e < edits && !s.empty(); ++e) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(s.size()));
    switch (rng.uniform_int(3)) {
      case 0:
        s[at] = static_cast<char>(static_cast<unsigned char>(s[at]) ^
                                  (1u << rng.uniform_int(8)));
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                 rng.uniform_int(2) != 0
                     ? kJsonBytes[rng.uniform_int(sizeof kJsonBytes - 1)]
                     : static_cast<char>(rng.uniform_int(256)));
        break;
      default:
        s.erase(at, static_cast<std::size_t>(1 + rng.uniform_int(4)));
        break;
    }
  }
  return s;
}

}  // namespace reads::test
