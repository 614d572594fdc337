// Dual-port on-chip RAM: a 32-bit port toward the HPS bridge and a 16-bit
// port toward the NN IP, exactly the paper's buffer arrangement. Stores
// 16-bit raw fixed-point words; access counters feed the tests and the
// performance-counter readout.
#pragma once

#include <cstdint>
#include <vector>

namespace reads::soc {

class OnChipRam {
 public:
  explicit OnChipRam(std::size_t words16);

  std::size_t size() const noexcept { return mem_.size(); }

  /// 16-bit IP-side port.
  std::int16_t read16(std::size_t addr) const;
  void write16(std::size_t addr, std::int16_t value);

  /// 32-bit HPS-side port: two consecutive 16-bit words, little-endian
  /// (word at the lower address in the low half).
  std::uint32_t read32(std::size_t word32_addr) const;
  void write32(std::size_t word32_addr, std::uint32_t value);

  std::size_t reads16() const noexcept { return reads16_; }
  std::size_t writes16() const noexcept { return writes16_; }

 private:
  std::vector<std::int16_t> mem_;
  mutable std::size_t reads16_ = 0;
  std::size_t writes16_ = 0;
};

}  // namespace reads::soc
