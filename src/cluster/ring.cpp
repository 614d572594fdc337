#include "cluster/ring.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace reads::cluster {

namespace {

/// FNV-1a alone places structured input (sequential node ids, small stream
/// numbers — most bytes zero) into tight clumps on the 64-bit ring; with 3
/// nodes x 64 vnodes one node can end up owning no low-numbered stream at
/// all. The SplitMix64 finalizer (util::mix64) on the digest restores uniform
/// spreading while staying a pure function of its input (placement must be
/// identical across processes and runs).
std::uint64_t point_hash(std::uint64_t node, std::uint64_t vnode) {
  std::uint8_t bytes[16];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>((node >> (8 * i)) & 0xFFu);
    bytes[8 + i] = static_cast<std::uint8_t>((vnode >> (8 * i)) & 0xFFu);
  }
  return util::mix64(util::fnv1a64(bytes, sizeof(bytes)));
}

}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  if (vnodes_ == 0) {
    throw std::invalid_argument("HashRing: need at least one vnode");
  }
}

std::uint64_t HashRing::stream_hash(std::uint64_t stream) noexcept {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>((stream >> (8 * i)) & 0xFFu);
  }
  return util::mix64(util::fnv1a64(bytes, sizeof(bytes)));
}

void HashRing::add(std::uint64_t node) {
  if (contains(node)) return;
  nodes_.insert(std::lower_bound(nodes_.begin(), nodes_.end(), node), node);
  points_.reserve(points_.size() + vnodes_);
  for (std::uint64_t v = 0; v < vnodes_; ++v) {
    points_.emplace_back(point_hash(node, v), node);
  }
  std::sort(points_.begin(), points_.end());
}

void HashRing::remove(std::uint64_t node) {
  const auto n = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (n == nodes_.end() || *n != node) return;
  nodes_.erase(n);
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [node](const auto& p) {
                                 return p.second == node;
                               }),
                points_.end());
}

bool HashRing::contains(std::uint64_t node) const noexcept {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

std::uint64_t HashRing::owner(std::uint64_t stream) const {
  if (points_.empty()) throw std::logic_error("HashRing: empty ring");
  const std::uint64_t h = stream_hash(stream);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const auto& p, std::uint64_t v) { return p.first < v; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

}  // namespace reads::cluster
