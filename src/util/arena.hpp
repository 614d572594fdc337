// Per-thread scratch arena backing the inference hot paths.
//
// The float and quantized forward passes are called once per frame inside
// parallel_for loops (accuracy sweeps, training, the SoC stream harness);
// allocating activation buffers per frame dominated the profile. The arena
// is a bump allocator over one grow-only block: a pass reserves its total
// footprint up front with require(), carves typed spans with alloc(), and
// an ArenaScope rewinds everything on exit so nested passes stack.
//
// Storage is kept in 8-byte words, so any T with alignof(T) <= 8 (the
// int64/float/int32 buffers used by the kernels) is served aligned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace reads::util {

class ScratchArena {
 public:
  /// Ensure capacity for at least `words` 8-byte words. Growth is only legal
  /// while no allocation is outstanding: live spans point into the block.
  void require_words(std::size_t words) {
    if (words <= buf_.size()) return;
    if (used_ != 0) {
      throw std::logic_error(
          "ScratchArena: cannot grow with outstanding allocations");
    }
    buf_.resize(words);
  }

  template <typename T>
  void require(std::size_t count) {
    require_words(words_for<T>(count));
  }

  /// Carve `count` elements of T from the reserved block. The span stays
  /// valid until the enclosing ArenaScope rewinds past it.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(alignof(T) <= alignof(std::int64_t),
                  "ScratchArena serves 8-byte-aligned storage");
    const std::size_t words = words_for<T>(count);
    if (used_ + words > buf_.size()) {
      // Growing here would invalidate spans handed out earlier in the
      // scope; callers must size the arena with require() first.
      if (used_ == 0) {
        buf_.resize(used_ + words);
      } else {
        throw std::logic_error("ScratchArena: alloc exceeds reserved scratch");
      }
    }
    T* base = reinterpret_cast<T*>(buf_.data() + used_);
    used_ += words;
    return {base, count};
  }

  std::size_t used_words() const noexcept { return used_; }
  void rewind(std::size_t mark) noexcept { used_ = mark; }

  /// The calling thread's arena (thread pool workers each get their own).
  static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

 private:
  template <typename T>
  static std::size_t words_for(std::size_t count) {
    return (count * sizeof(T) + sizeof(std::int64_t) - 1) /
           sizeof(std::int64_t);
  }

  std::vector<std::int64_t> buf_;
  std::size_t used_ = 0;
};

/// RAII mark/rewind over a ScratchArena, so a pass frees its scratch on any
/// exit path and nested passes (e.g. a kernel inside a model forward) stack.
class ArenaScope {
 public:
  explicit ArenaScope(ScratchArena& arena)
      : arena_(arena), mark_(arena.used_words()) {}
  ~ArenaScope() { arena_.rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  ScratchArena& arena_;
  std::size_t mark_;
};

}  // namespace reads::util
