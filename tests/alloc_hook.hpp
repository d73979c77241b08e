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
/// the counted operator deletes of a block, and the bytes of counted
/// blocks not yet deleted.
std::atomic<std::size_t> g_alloc_bytes{0};
std::atomic<std::size_t> g_alloc_calls{0};
std::atomic<std::size_t> g_free_calls{0};
std::atomic<std::ptrdiff_t> g_live_bytes{0};
/// Set on a thread whose allocations a test deliberately leaves out.
thread_local bool t_uncounted = false;

/// Each block carries a header with its size (and whether it was
/// counted), so a delete knows what it frees; the header keeps malloc's
/// 16-byte alignment.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t size) {
  auto* block = static_cast<std::size_t*>(std::malloc(size + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  block[0] = size;
  block[1] = t_uncounted ? 0 : 1;
  if (!t_uncounted) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::ptrdiff_t>(size),
                           std::memory_order_relaxed);
  }
  return reinterpret_cast<char*>(block) + kHeader;
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* block =
      reinterpret_cast<std::size_t*>(static_cast<char*>(p) - kHeader);
  if (block[1] != 0)
    g_live_bytes.fetch_sub(static_cast<std::ptrdiff_t>(block[0]),
                           std::memory_order_relaxed);
  if (!t_uncounted) g_free_calls.fetch_add(1, std::memory_order_relaxed);
  std::free(block);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
