// Bump arena allocator + thread-local binding — the tensor allocator seam.
//
// Serving wants allocation-free steady state (DESIGN.md §2, ROADMAP item 3):
// a runtime worker owns one Arena sized at install time from
// core::DeploymentSnapshot::plan_workspace(), binds it with an ArenaScope
// around the hot region (batch stacking + model inference), and resets it
// per (config, model) group. While a scope is bound on the thread, every
// Tensor allocation and ScratchVec lands in the arena instead of the heap;
// the arithmetic is untouched, so results stay element-wise identical to the
// heap path (test_runtime asserts it).
//
// Liveness rule: an ArenaMark taken inside the bound region releases, when
// it ends, everything allocated since it began — the bump pointer rewinds
// and overflow blocks taken since are freed — so the next allocation reuses
// that memory. The served forward holds one mark per encoder block and one
// per call's scratch, so the arena only ever holds the residual stream, one
// block's temporaries and one call's panels. A mark with no ArenaScope bound
// is a no-op: heap callers (training) are unchanged.
//
// Accounting rule: every allocation is rounded up to kAlign bytes in BOTH
// the bump pointer and the `used()` count of live bytes; allocations that
// miss the buffer fall back to individually heap'd blocks (freed at
// release() or reset()) while still adding their rounded size to `used()`.
// `peak()` is the largest `used()` since the last reset. Because marks
// release in LIFO order, the bump offset equals `used()` while nothing
// overflows, so `peak()` after a probe run over a zero-capacity arena is
// *exactly* the capacity a real arena needs to serve the same call sequence
// overflow-free — the measurement plan_workspace() relies on.
//
// Lifetime rule: arena memory is invalidated by the release of the mark it
// was allocated under, and by reset(); nothing allocated under a mark may
// escape it, and nothing allocated under a scope may escape past the owning
// worker's reset. In the runtime, the scope ends before decode, so
// detect::Detection tensors (which escape into InferenceResult) are always
// heap-backed. Under AddressSanitizer, released and reset buffer memory is
// poisoned, so a read through an escaped tensor is an ASan report.
//
// An Arena is single-threaded by design (one per worker); only the
// ArenaScope binding is thread-local.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "tensor/shape.h"

namespace itask {

namespace allocdebug {

/// Hook for an instrumented global operator-new interposer (defined only in
/// test binaries): bumps the calling thread's allocation counter. noexcept
/// and safe before main.
void note_alloc() noexcept;

/// Heap allocations observed on this thread since it started (0 unless the
/// binary interposes operator new and routes it here).
int64_t thread_alloc_count() noexcept;

}  // namespace allocdebug

class Arena {
 public:
  /// Every allocation is rounded to this granularity (cache line).
  static constexpr int64_t kAlign = 64;

  explicit Arena(int64_t capacity_bytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Where the arena stands: what release() rewinds to.
  struct Mark {
    int64_t offset = 0;
    int64_t used = 0;
    size_t overflow_blocks = 0;
  };

  /// Returns kAlign-aligned storage for `bytes` (nullptr when bytes <= 0).
  /// Falls back to a heap block — freed at release() or reset() — when the
  /// buffer is exhausted; `used()` accounts the rounded size either way.
  void* allocate(int64_t bytes);

  Mark mark() const { return {offset_, used_, overflow_.size()}; }

  /// Invalidates everything allocated since `m` was taken: rewinds the bump
  /// pointer and frees the overflow blocks taken since. Marks release in
  /// LIFO order; used() returns to its value at `m`, peak() keeps its value.
  void release(const Mark& m);

  /// Invalidates everything allocated since the last reset: rewinds the bump
  /// pointer and frees overflow blocks. used() and peak() return to 0.
  void reset();

  /// Enlarges the backing buffer. Only legal when the arena is empty (right
  /// after reset()); a no-op when the arena is already at least this large.
  void grow(int64_t capacity_bytes);

  int64_t capacity() const { return capacity_; }
  /// Rounded bytes live now: handed out since the last reset and not yet
  /// released (exact even when allocations overflowed to the heap).
  int64_t used() const { return used_; }
  /// Maximum used() since the last reset: the capacity that serves the
  /// sequence so far without overflow.
  int64_t peak() const { return peak_; }
  /// Maximum used() ever reached, across resets.
  int64_t high_water() const { return high_water_; }
  /// Cumulative count of allocations that missed the buffer (never reset —
  /// a nonzero delta in steady state means the arena was sized too small).
  int64_t overflow_allocs() const { return overflow_allocs_; }

 private:
  char* base_ = nullptr;
  int64_t capacity_ = 0;
  int64_t offset_ = 0;
  int64_t used_ = 0;
  int64_t peak_ = 0;
  int64_t high_water_ = 0;
  int64_t overflow_allocs_ = 0;
  std::vector<void*> overflow_;
};

/// RAII thread-local binding: while alive, Tensor/ScratchVec allocations on
/// this thread come from `arena`. Nests (restores the previous binding).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The arena bound on the calling thread, or nullptr (heap policy).
  static Arena* current() noexcept;

 private:
  Arena* prev_ = nullptr;
};

/// RAII liveness scope: releases, when it ends, everything the arena bound
/// on this thread handed out since it began (see the liveness rule above).
/// A no-op when no ArenaScope is bound. Take it after allocating whatever
/// must outlive it — a call's outputs, a block's residual stream.
class ArenaMark {
 public:
  ArenaMark() : arena_(ArenaScope::current()) {
    if (arena_ != nullptr) mark_ = arena_->mark();
  }
  ~ArenaMark() {
    if (arena_ != nullptr) arena_->release(mark_);
  }

  ArenaMark(const ArenaMark&) = delete;
  ArenaMark& operator=(const ArenaMark&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// Raw scratch buffer for trivially-destructible element types: arena-backed
/// under an ArenaScope, a plain heap array otherwise. Zero-filled by default;
/// with `zero_fill` false the storage is left uninitialised on both paths
/// (arena memory is reused), so such callers must overwrite every element.
template <typename T>
class ScratchVec {
  static_assert(std::is_trivially_destructible_v<T>,
                "ScratchVec elements must be trivially destructible");

 public:
  explicit ScratchVec(int64_t n, bool zero_fill = true) : size_(n) {
    if (size_ <= 0) {
      size_ = 0;
      return;
    }
    if (Arena* arena = ArenaScope::current()) {
      data_ = static_cast<T*>(
          arena->allocate(size_ * static_cast<int64_t>(sizeof(T))));
      if (zero_fill)
        std::memset(data_, 0, static_cast<size_t>(size_) * sizeof(T));
    } else {
      const auto n = static_cast<size_t>(size_);
      heap_ = zero_fill ? std::make_unique<T[]>(n)
                        : std::make_unique_for_overwrite<T[]>(n);
      data_ = heap_.get();
    }
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  int64_t size() const { return size_; }
  T& operator[](int64_t i) { return data_[i]; }
  const T& operator[](int64_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  T* data_ = nullptr;
  int64_t size_ = 0;
  std::unique_ptr<T[]> heap_;
};

}  // namespace itask
