#include "tensor/arena.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ITASK_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define ITASK_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define ITASK_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define ITASK_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace itask {

namespace allocdebug {

namespace {
thread_local int64_t t_alloc_count = 0;
}  // namespace

void note_alloc() noexcept { ++t_alloc_count; }

int64_t thread_alloc_count() noexcept { return t_alloc_count; }

}  // namespace allocdebug

namespace {

constexpr std::align_val_t kArenaAlign{
    static_cast<size_t>(Arena::kAlign)};

int64_t round_up(int64_t bytes) {
  return (bytes + Arena::kAlign - 1) & ~(Arena::kAlign - 1);
}

/// A buffer of `bytes` (> 0), poisoned until allocate() hands it out.
char* new_buffer(int64_t bytes) {
  char* p = static_cast<char*>(
      ::operator new(static_cast<size_t>(bytes), kArenaAlign));
  ITASK_ARENA_POISON(p, static_cast<size_t>(bytes));
  return p;
}

void delete_buffer(char* p, int64_t bytes) {
  if (p == nullptr) return;
  ITASK_ARENA_UNPOISON(p, static_cast<size_t>(bytes));
  ::operator delete(p, kArenaAlign);
}

}  // namespace

Arena::Arena(int64_t capacity_bytes) {
  ITASK_CHECK(capacity_bytes >= 0, "Arena: capacity must be >= 0");
  capacity_ = round_up(capacity_bytes);
  if (capacity_ > 0) base_ = new_buffer(capacity_);
}

Arena::~Arena() {
  reset();
  delete_buffer(base_, capacity_);
}

void* Arena::allocate(int64_t bytes) {
  if (bytes <= 0) return nullptr;
  const int64_t rounded = round_up(bytes);
  used_ += rounded;
  if (used_ > peak_) {
    peak_ = used_;
    if (peak_ > high_water_) high_water_ = peak_;
  }
  if (offset_ + rounded <= capacity_) {
    void* p = base_ + offset_;
    offset_ += rounded;
    ITASK_ARENA_UNPOISON(p, static_cast<size_t>(bytes));
    return p;
  }
  ++overflow_allocs_;
  void* p = ::operator new(static_cast<size_t>(rounded), kArenaAlign);
  overflow_.push_back(p);
  return p;
}

void Arena::release(const Mark& m) {
  for (size_t i = m.overflow_blocks; i < overflow_.size(); ++i)
    ::operator delete(overflow_[i], kArenaAlign);
  overflow_.resize(m.overflow_blocks);
  ITASK_ARENA_POISON(base_ + m.offset,
                     static_cast<size_t>(offset_ - m.offset));
  offset_ = m.offset;
  used_ = m.used;
}

void Arena::reset() {
  release(Mark{});
  peak_ = 0;
}

void Arena::grow(int64_t capacity_bytes) {
  ITASK_CHECK(used_ == 0, "Arena: grow() requires an empty (reset) arena");
  const int64_t rounded = round_up(capacity_bytes);
  if (rounded <= capacity_) return;
  delete_buffer(base_, capacity_);
  base_ = new_buffer(rounded);
  capacity_ = rounded;
}

namespace {
thread_local Arena* t_current_arena = nullptr;
}  // namespace

ArenaScope::ArenaScope(Arena& arena) : prev_(t_current_arena) {
  t_current_arena = &arena;
}

ArenaScope::~ArenaScope() { t_current_arena = prev_; }

Arena* ArenaScope::current() noexcept { return t_current_arena; }

}  // namespace itask
