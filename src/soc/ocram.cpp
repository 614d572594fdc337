#include "soc/ocram.hpp"

#include <stdexcept>

namespace reads::soc {

OnChipRam::OnChipRam(std::size_t words16) : mem_(words16, 0) {
  if (words16 == 0) throw std::invalid_argument("OnChipRam: zero size");
}

std::int16_t OnChipRam::read16(std::size_t addr) const {
  if (addr >= mem_.size()) throw std::out_of_range("OnChipRam::read16");
  ++reads16_;
  return mem_[addr];
}

void OnChipRam::write16(std::size_t addr, std::int16_t value) {
  if (addr >= mem_.size()) throw std::out_of_range("OnChipRam::write16");
  ++writes16_;
  mem_[addr] = value;
}

std::uint32_t OnChipRam::read32(std::size_t word32_addr) const {
  const std::size_t base = word32_addr * 2;
  if (base + 1 >= mem_.size() + 1 || base >= mem_.size()) {
    throw std::out_of_range("OnChipRam::read32");
  }
  const auto lo = static_cast<std::uint16_t>(mem_[base]);
  const std::uint16_t hi =
      base + 1 < mem_.size() ? static_cast<std::uint16_t>(mem_[base + 1]) : 0;
  return static_cast<std::uint32_t>(lo) |
         (static_cast<std::uint32_t>(hi) << 16);
}

void OnChipRam::write32(std::size_t word32_addr, std::uint32_t value) {
  const std::size_t base = word32_addr * 2;
  if (base >= mem_.size()) throw std::out_of_range("OnChipRam::write32");
  mem_[base] = static_cast<std::int16_t>(static_cast<std::uint16_t>(value & 0xFFFF));
  if (base + 1 < mem_.size()) {
    mem_[base + 1] =
        static_cast<std::int16_t>(static_cast<std::uint16_t>(value >> 16));
  }
}

}  // namespace reads::soc
