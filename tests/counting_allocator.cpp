// Instrumented global allocator, linked into test_runtime and
// test_runtime_units. It replaces the ordinary (and aligned) operator
// new/delete so that every heap allocation bumps the allocating thread's
// allocdebug counter — the instrument behind the zero-steady-state-allocation
// serving contract: the server reads the counter delta around each worker's
// arena-scoped region and surfaces it as the `hot_path_allocs` metric, which
// the Arena* tests assert stops moving after warmup, and the queue's
// caller-buffer pop is checked against it directly. Allocations route
// through malloc / posix_memalign, which ASan and TSan intercept as usual, so
// the sanitized runs keep their full coverage. The nothrow variants need no
// replacement: the defaults forward to these.
#include <cstdlib>
#include <new>

#include "tensor/arena.h"

namespace {

void* counted_alloc(std::size_t size) {
  itask::allocdebug::note_alloc();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  itask::allocdebug::note_alloc();
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
