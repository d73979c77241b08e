// Executor-concept laws: the semantic contract behind the syntactic
// concept of parallel/executor.hpp, as an executable property bundle in
// the laws.hpp idiom.  The syntax (`submit`, `worker_count`) is checked by
// static_assert; what makes something a SCHEDULER is checked here:
//
//   - exactly-once: every submitted task runs exactly once, even when N
//     producer threads submit concurrently (no lost or doubled tasks
//     across the inject/deque/steal paths);
//   - nested fork-join completes: task_group recursion from inside pool
//     tasks terminates (the helping protocol actually prevents the
//     workers-all-waiting deadlock);
//   - destruction drains: a destroyed executor has run every task
//     submitted before destruction began.
//
// The bundle is generic over a factory returning any Executor model, so
// the conformance suite runs the SAME properties against the
// work_stealing_pool (unbounded, bounded, single-worker) and the inline
// archetype — one contract, every model, exactly how the transport
// parity suite treats its backends.
// Failures reproduce via the standard CGP_CHECK_SEED line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/property.hpp"
#include "parallel/executor.hpp"
#include "parallel/task_group.hpp"

namespace cgp::check {

namespace detail {

/// Bounded completion wait for raw (non-group) submissions.  Ten seconds
/// is far past any sane schedule; hitting it means tasks were lost, which
/// is exactly what the property then reports.
inline bool await_count(const std::atomic<std::size_t>& done,
                        std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load(std::memory_order_acquire) < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace detail

/// Executor-model property bundle.  `make` is a factory returning a
/// freshly constructed model behind a unique_ptr (pools are neither
/// copyable nor movable); each sampled case builds its own instance, so
/// construction/destruction races are part of what the bundle exercises.
template <class Factory>
  requires requires(const Factory& f) {
    requires parallel::Executor<
        typename std::invoke_result_t<const Factory&>::element_type>;
  }
[[nodiscard]] std::vector<result> executor_properties(
    const std::string& model, Factory make, const config& cfg = {}) {
  using E = typename std::invoke_result_t<const Factory&>::element_type;
  std::vector<result> out;

  out.push_back(for_all<std::uint64_t>(
      "Executor[" + model + "].exactly_once_under_writers",
      [make](std::uint64_t entropy) {
        const unsigned writers = 1 + entropy % 4;
        const std::size_t per_writer = 8 + (entropy >> 4) % 25;
        const std::size_t total = writers * per_writer;
        auto exec = make();
        std::vector<std::atomic<int>> runs(total);
        std::atomic<std::size_t> done{0};
        {
          std::vector<std::thread> producers;
          producers.reserve(writers);
          for (unsigned w = 0; w < writers; ++w)
            producers.emplace_back([&, w] {
              for (std::size_t t = 0; t < per_writer; ++t)
                exec->submit([&runs, &done, idx = w * per_writer + t] {
                  runs[idx].fetch_add(1, std::memory_order_acq_rel);
                  done.fetch_add(1, std::memory_order_acq_rel);
                });
            });
          for (std::thread& p : producers) p.join();
        }
        if (!detail::await_count(done, total)) return false;
        for (const auto& r : runs)
          if (r.load(std::memory_order_acquire) != 1) return false;
        return true;
      },
      cfg));

  out.push_back(for_all<std::uint64_t>(
      "Executor[" + model + "].nested_fork_join_completes",
      [make](std::uint64_t entropy) {
        const std::size_t fan = 2 + entropy % 3;
        const std::size_t depth = 2 + (entropy >> 2) % 2;
        auto exec = make();
        std::atomic<std::size_t> leaves{0};
        auto spawn = [&](auto&& self, std::size_t d) -> void {
          if (d == 0) {
            leaves.fetch_add(1, std::memory_order_acq_rel);
            return;
          }
          parallel::task_group<E> group(*exec);
          for (std::size_t k = 0; k < fan; ++k)
            group.run([&self, d] { self(self, d - 1); });
          group.wait();
        };
        spawn(spawn, depth);
        std::size_t want = 1;
        for (std::size_t d = 0; d < depth; ++d) want *= fan;
        return leaves.load(std::memory_order_acquire) == want;
      },
      cfg));

  out.push_back(for_all<std::uint64_t>(
      "Executor[" + model + "].destruction_drains",
      [make](std::uint64_t entropy) {
        const std::size_t n = 16 + entropy % 113;
        std::atomic<std::size_t> ran{0};
        {
          auto exec = make();
          for (std::size_t i = 0; i < n; ++i)
            exec->submit(
                [&ran] { ran.fetch_add(1, std::memory_order_acq_rel); });
        }
        return ran.load(std::memory_order_acquire) == n;
      },
      cfg));

  return out;
}

}  // namespace cgp::check
