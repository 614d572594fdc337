// Consistent-hash ring for stream -> replica pinning.
//
// Each node contributes `vnodes` points on a 64-bit ring (FNV-1a over the
// node id and vnode index, finalized by util::mix64); a stream belongs to
// the first point clockwise from its own hash. Adding or removing one node
// therefore moves only the streams in the arcs that node's points cover
// (~1/N of them) — the router builds its live-resharding drain set from
// exactly that delta, so ring placement must be deterministic across
// processes and runs (it is: pure hashing, no RNG; pinned in test_cluster).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reads::cluster {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void add(std::uint64_t node);
  void remove(std::uint64_t node);
  bool contains(std::uint64_t node) const noexcept;
  /// Distinct nodes on the ring.
  std::size_t size() const noexcept { return nodes_.size(); }
  bool empty() const noexcept { return nodes_.empty(); }
  const std::vector<std::uint64_t>& nodes() const noexcept { return nodes_; }

  /// Owning node of `stream`; throws std::logic_error on an empty ring.
  std::uint64_t owner(std::uint64_t stream) const;

  /// Ring position of a stream (exposed for tests/diagnostics).
  static std::uint64_t stream_hash(std::uint64_t stream) noexcept;

 private:
  std::size_t vnodes_;
  std::vector<std::uint64_t> nodes_;  ///< sorted distinct node ids
  /// Sorted (point hash, node). Ties (astronomically unlikely) are broken
  /// by node id via the pair ordering, identically on every process.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> points_;
};

}  // namespace reads::cluster
