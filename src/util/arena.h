#ifndef FWDECAY_UTIL_ARENA_H_
#define FWDECAY_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/check.h"

// Chunked bump allocator for per-window group state (DESIGN.md §13.3).
//
// The engine's group tables allocate fixed-size Group shells out of an
// arena instead of the general heap: admission is a pointer bump,
// locality follows allocation order, and window turnover recycles the
// shells without touching malloc. The arena never frees individual
// objects — callers with non-trivially-destructible payloads (the
// aggregate states in a group's block) must run destructors themselves
// before Reset() or destruction.

namespace fwdecay::util {

class Arena {
 public:
  /// `chunk_bytes` is the granularity of growth; oversized allocations
  /// get a dedicated chunk of exactly their size.
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {
    FWDECAY_CHECK_MSG(chunk_bytes > 0, "arena chunk size must be positive");
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never returns nullptr; lifetime ends at Reset() or destruction.
  void* Allocate(std::size_t bytes, std::size_t align) {
    FWDECAY_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                      "arena alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    while (true) {
      if (current_ < chunks_.size()) {
        Chunk& c = chunks_[current_];
        const std::uintptr_t base =
            reinterpret_cast<std::uintptr_t>(c.data.get());
        // Align the absolute address, not the chunk offset: operator
        // new[] only guarantees max_align_t, so over-aligned requests
        // would otherwise land misaligned.
        const std::uintptr_t want =
            (base + offset_ + (align - 1)) &
            ~static_cast<std::uintptr_t>(align - 1);
        const std::size_t aligned = static_cast<std::size_t>(want - base);
        if (aligned + bytes <= c.size) {
          offset_ = aligned + bytes;
          bytes_allocated_ += bytes;
          return reinterpret_cast<void*>(want);
        }
        ++current_;
        offset_ = 0;
        continue;
      }
      AddChunk(bytes + align);
    }
  }

  /// Placement-constructs a T; the caller owns the destructor call.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return ::new (p) T(static_cast<Args&&>(args)...);
  }

  /// Rewinds to empty, retaining every chunk for reuse. All outstanding
  /// objects must already be destroyed.
  void Reset() {
    current_ = 0;
    offset_ = 0;
    bytes_allocated_ = 0;
  }

  /// Live bytes handed out since the last Reset() (excludes padding).
  std::size_t bytes_allocated() const { return bytes_allocated_; }

  /// Total capacity across retained chunks.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void AddChunk(std::size_t min_bytes) {
    const std::size_t size = min_bytes > chunk_bytes_ ? min_bytes
                                                      : chunk_bytes_;
    Chunk c;
    c.data = std::make_unique<std::byte[]>(size);
    c.size = size;
    chunks_.push_back(std::move(c));
    current_ = chunks_.size() - 1;
    offset_ = 0;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  std::size_t offset_ = 0;
  std::size_t bytes_allocated_ = 0;
};

}  // namespace fwdecay::util

#endif  // FWDECAY_UTIL_ARENA_H_
