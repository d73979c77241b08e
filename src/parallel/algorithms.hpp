// The data-parallel generic library of Section 4, rebuilt over the
// Executor concept.
//
// "The programmer still thinks and programs in parallel, but more
// abstractly" — and both concept layers do real work here.  The *semantic*
// concepts of Section 3: `parallel_reduce` and `parallel_scan` reassociate
// the operation across chunks, which is only meaning-preserving for
// associative operations, so both are constrained by the Monoid concept —
// a non-associative operation is a compile-time error, not a silent wrong
// answer.  The *executor* concept of this layer: every algorithm is
// templated on any `Executor`, so the same code runs over the
// `work_stealing_pool` (the default) or the inline archetype — the
// executor is a plugged-in module boundary, exactly like the element type.
//
// Grain control: every algorithm takes a `grain` — the minimum number of
// elements a chunk must hold to be worth forking (amortizing submit + wake
// cost).  [0, n) splits into at most `worker_count * 4` chunks of at least
// `grain` elements; work smaller than one grain runs inline.
#pragma once

#include <functional>
#include <vector>

#include "core/algebraic.hpp"
#include "parallel/executor.hpp"
#include "parallel/task_group.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "sequences/sort.hpp"

namespace cgp::parallel {

namespace detail {

/// Chunk [0,n) into at most worker_count*4 chunks of at least `grain`.
struct chunking {
  std::size_t chunk_count;
  std::size_t chunk_size;
};

template <Executor E>
chunking chunks_for(std::size_t n, const E& exec, std::size_t grain = 1024) {
  if (n == 0) return {0, 0};
  if (grain == 0) grain = 1;
  const std::size_t max_chunks =
      static_cast<std::size_t>(exec.worker_count()) * 4;
  std::size_t count = std::min(max_chunks, (n + grain - 1) / grain);
  count = std::max<std::size_t>(count, 1);
  const std::size_t size = (n + count - 1) / count;
  return {(n + size - 1) / size, size};
}

/// Blocking chunk fan-out over any Executor.  Pools expose a `run_chunks`
/// member carrying their own telemetry identity (span + trace + profile
/// frame named after the pool) — use it when present; minimal models (the
/// archetype) get the plain task_group fan-out, which is all the concept
/// promises.
template <Executor E>
void run_chunks_on(E& exec, std::size_t chunks,
                   const std::function<void(std::size_t)>& fn) {
  if constexpr (requires { exec.run_chunks(chunks, fn); }) {
    exec.run_chunks(chunks, fn);
  } else {
    if (chunks == 0) return;
    task_group<E> group(exec);
    for (std::size_t c = 0; c < chunks; ++c) group.run([&fn, c] { fn(c); });
    group.wait();
  }
}

}  // namespace detail

/// parallel_for: applies fn(i) for i in [0, n) across any Executor.
template <class Fn, Executor E = work_stealing_pool>
  requires std::invocable<Fn&, std::size_t>
void parallel_for(std::size_t n, Fn fn,
                  E& exec = work_stealing_pool::default_pool(),
                  std::size_t grain = 1024) {
  const auto [chunks, size] = detail::chunks_for(n, exec, grain);
  if (chunks <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::run_chunks_on(exec, chunks, [&, size = size](std::size_t c) {
    const std::size_t lo = c * size;
    const std::size_t hi = std::min(lo + size, n);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

/// parallel_transform: out[i] = fn(in[i]).
template <std::random_access_iterator I, std::random_access_iterator O,
          class Fn, Executor E = work_stealing_pool>
void parallel_transform(I first, I last, O out, Fn fn,
                        E& exec = work_stealing_pool::default_pool(),
                        std::size_t grain = 1024) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(first[i]); }, exec, grain);
}

/// Monoid-constrained parallel reduction.  Deterministic: chunk results are
/// combined in index order, so only associativity (not commutativity) is
/// required — exactly the Monoid contract.
template <class Op, std::random_access_iterator I, Executor E = work_stealing_pool>
  requires core::Monoid<std::iter_value_t<I>, Op>
[[nodiscard]] std::iter_value_t<I> parallel_reduce(
    I first, I last, Op op = {}, E& exec = work_stealing_pool::default_pool(),
    std::size_t grain = 1024) {
  using T = std::iter_value_t<I>;
  const std::size_t n = static_cast<std::size_t>(last - first);
  const auto [chunks, size] = detail::chunks_for(n, exec, grain);
  const T id = core::identity_element<T, Op>();
  if (chunks <= 1) {
    T acc = id;
    for (std::size_t i = 0; i < n; ++i) acc = op(acc, first[i]);
    return acc;
  }
  std::vector<T> partial(chunks, id);
  detail::run_chunks_on(exec, chunks, [&, size = size](std::size_t c) {
    const std::size_t lo = c * size;
    const std::size_t hi = std::min(lo + size, n);
    T acc = id;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, first[i]);
    partial[c] = acc;
  });
  T acc = id;
  for (const T& p : partial) acc = op(acc, p);
  return acc;
}

/// Monoid-constrained inclusive scan (two-phase block scan):
///   phase 1 — each chunk reduces to a block sum in parallel;
///   serial   — exclusive scan over the (few) block sums;
///   phase 2 — each chunk rescans with its offset in parallel.
template <class Op, std::random_access_iterator I,
          std::random_access_iterator O, Executor E = work_stealing_pool>
  requires core::Monoid<std::iter_value_t<I>, Op>
void parallel_inclusive_scan(I first, I last, O out, Op op = {},
                             E& exec = work_stealing_pool::default_pool(),
                             std::size_t grain = 1024) {
  using T = std::iter_value_t<I>;
  const std::size_t n = static_cast<std::size_t>(last - first);
  const auto [chunks, size] = detail::chunks_for(n, exec, grain);
  const T id = core::identity_element<T, Op>();
  if (chunks <= 1) {
    T acc = id;
    for (std::size_t i = 0; i < n; ++i) {
      acc = op(acc, first[i]);
      out[i] = acc;
    }
    return;
  }
  std::vector<T> block_sum(chunks, id);
  detail::run_chunks_on(exec, chunks, [&, size = size](std::size_t c) {
    const std::size_t lo = c * size;
    const std::size_t hi = std::min(lo + size, n);
    T acc = id;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, first[i]);
    block_sum[c] = acc;
  });
  std::vector<T> offset(chunks, id);
  for (std::size_t c = 1; c < chunks; ++c)
    offset[c] = op(offset[c - 1], block_sum[c - 1]);
  detail::run_chunks_on(exec, chunks, [&, size = size](std::size_t c) {
    const std::size_t lo = c * size;
    const std::size_t hi = std::min(lo + size, n);
    T acc = offset[c];
    for (std::size_t i = lo; i < hi; ++i) {
      acc = op(acc, first[i]);
      out[i] = acc;
    }
  });
}

/// Canonical short name for the inclusive scan (the four data-parallel
/// algorithms are for/reduce/scan/sort).
template <class Op, std::random_access_iterator I,
          std::random_access_iterator O, Executor E = work_stealing_pool>
  requires core::Monoid<std::iter_value_t<I>, Op>
void parallel_scan(I first, I last, O out, Op op = {},
                   E& exec = work_stealing_pool::default_pool(),
                   std::size_t grain = 1024) {
  parallel_inclusive_scan(first, last, out, op, exec, grain);
}

/// Parallel mergesort: chunks sorted in parallel with the concept-dispatched
/// sequential sort, then pairwise parallel merge rounds.
template <std::random_access_iterator I,
          std::indirect_strict_weak_order<I> Cmp = std::less<>,
          Executor E = work_stealing_pool>
void parallel_sort(I first, I last, Cmp cmp = {},
                   E& exec = work_stealing_pool::default_pool(),
                   std::size_t grain = 4096) {
  using T = std::iter_value_t<I>;
  const std::size_t n = static_cast<std::size_t>(last - first);
  const auto [chunks, size] = detail::chunks_for(n, exec, grain);
  if (chunks <= 1) {
    cgp::sequences::sort(first, last, cmp);
    return;
  }
  detail::run_chunks_on(exec, chunks, [&, size = size](std::size_t c) {
    const std::size_t lo = c * size;
    const std::size_t hi = std::min(lo + size, n);
    cgp::sequences::sort(first + lo, first + hi, cmp);
  });
  // Pairwise merge rounds through a buffer.
  std::vector<T> buffer(first, last);
  bool in_buffer = false;  // which storage currently holds the runs
  for (std::size_t width = size; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    auto src = [&](std::size_t i) -> T& {
      return in_buffer ? buffer[i] : first[i];
    };
    auto dst = [&](std::size_t i) -> T& {
      return in_buffer ? first[i] : buffer[i];
    };
    detail::run_chunks_on(exec, pairs, [&](std::size_t p) {
      const std::size_t lo = p * 2 * width;
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t a = lo, b = mid, o = lo;
      while (a < mid && b < hi)
        dst(o++) = cmp(src(b), src(a)) ? src(b++) : src(a++);
      while (a < mid) dst(o++) = src(a++);
      while (b < hi) dst(o++) = src(b++);
    });
    in_buffer = !in_buffer;
  }
  if (in_buffer)
    for (std::size_t i = 0; i < n; ++i) first[i] = buffer[i];
}

}  // namespace cgp::parallel
