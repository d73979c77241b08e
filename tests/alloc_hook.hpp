// Counting replacements for the global operator new/delete, for tests that
// pin allocation behaviour.  They replace the allocator of the whole
// binary, so include this header from exactly one translation unit of a
// test executable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
/// Bytes and calls of every counted operator new since the program began,
/// and the counted operator deletes of a block.
std::atomic<std::size_t> g_alloc_bytes{0};
std::atomic<std::size_t> g_alloc_calls{0};
std::atomic<std::size_t> g_free_calls{0};
/// Set on a thread whose allocations a test deliberately leaves out.
thread_local bool t_uncounted = false;

void* counted_alloc(std::size_t size) {
  if (!t_uncounted) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept {
  if (p != nullptr && !t_uncounted)
    g_free_calls.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
