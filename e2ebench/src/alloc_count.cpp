// Counting replacement of the global allocation functions, after the
// allocator shim in the library's health tests.  Every form of `operator
// new` funnels into one counted allocation; deletes go straight to free.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_one() noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t al) {
  count_one();
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a nonzero multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded))
    return p;
  throw std::bad_alloc();
}

}  // namespace

namespace e2e {

void alloc_counter::enable(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_counter::count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace e2e

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc(size, al);
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
