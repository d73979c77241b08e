// The Executor concept: the driver-facing boundary of the parallel layer,
// mirroring the Transport concept of `distributed/transport.hpp` (Section 2
// methodology: generic libraries expose concept-bounded module boundaries
// so implementations can be swapped without touching call sites).
//
// An Executor is anything that can host the data-parallel algorithms:
// construct from `pool_options`, accept work via a concept-bounded
// templated `submit` (any `std::invocable`, including move-only callables
// — no double type-erasure through std::function), and report its
// `worker_count`.  The fork-join layer (`task_group`, `run_chunks`, the
// four parallel algorithms) is built on top of exactly this surface, so
// `parallel_for` over the `work_stealing_pool` or the inline archetype
// below is the same code.
//
// `executor_archetype` is the syntactic archetype (core/archetypes.hpp
// style): the MINIMAL model of the concept, with run-inline semantics.
// Instantiating the algorithms with it proves they require no syntax
// beyond the concept — the static_asserts at the bottom of this header
// and the instantiation in tests/executor_test.cpp are the proof
// obligations.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "parallel/options.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cgp::parallel {

// ---------------------------------------------------------------------------
// task_fn: a move-only type-erased () -> void callable
// ---------------------------------------------------------------------------

/// The executor-side task representation.  Unlike std::function it accepts
/// move-only callables (a closure owning a std::unique_ptr, a promise, a
/// one-shot latch count) and erases the callable exactly ONCE: the
/// templated `submit` constructs the task_fn directly from the caller's
/// invocable, and the queue stores causal metadata BESIDE it (see
/// `task_item`) instead of re-wrapping into a second closure.
class task_fn {
 public:
  task_fn() = default;

  template <std::invocable F>
    requires(!std::same_as<std::remove_cvref_t<F>, task_fn>)
  task_fn(F&& f)  // NOLINT(google-explicit-constructor): converting on purpose
      : impl_(std::make_unique<model<std::decay_t<F>>>(std::forward<F>(f))) {}

  task_fn(task_fn&&) noexcept = default;
  task_fn& operator=(task_fn&&) noexcept = default;
  task_fn(const task_fn&) = delete;
  task_fn& operator=(const task_fn&) = delete;

  void operator()() { impl_->call(); }
  [[nodiscard]] explicit operator bool() const noexcept {
    return impl_ != nullptr;
  }

 private:
  struct base {
    virtual ~base() = default;
    virtual void call() = 0;
  };
  template <class F>
  struct model final : base {
    F f;
    explicit model(const F& g) : f(g) {}
    explicit model(F&& g) : f(std::move(g)) {}
    void call() override { f(); }
  };
  std::unique_ptr<base> impl_;
};

// ---------------------------------------------------------------------------
// The concept
// ---------------------------------------------------------------------------

// clang-format off
template <class E>
concept Executor =
    std::constructible_from<E, const pool_options&> &&
    requires(E e, const E ce, task_fn t) {
      // Work submission: the archetypal erased task must be accepted.  Real
      // models take any std::invocable via a concept-bounded template, of
      // which this is one instantiation.
      { e.submit(std::move(t)) };
      // Sizing for grain control: how wide can a fan-out usefully be.
      { ce.worker_count() } -> std::convertible_to<unsigned>;
    };
// clang-format on

// ---------------------------------------------------------------------------
// Shared queue-entry payload (causal metadata rides beside the task)
// ---------------------------------------------------------------------------

namespace detail {

/// One queued task with the submitter's causal metadata carried INLINE
/// beside it rather than re-wrapped into a second closure: the trace
/// context and shadow-stack path are plain data (no allocation), so
/// traced/profiled submits cost a memcpy, not a heap round trip — the
/// difference that keeps attribution inside the probe-overhead budget
/// perf_report gates on.  The work-stealing pool queues exactly this.
struct task_item {
  task_fn fn;
  telemetry::trace::span_context ctx{};  ///< submitter's trace context
  std::uint64_t flow = 0;                ///< flow arrow id (traced only)
  telemetry::profile::call_path path{};  ///< submitter's shadow stack
};

/// Captures the submitting thread's trace context + shadow-stack path into
/// `item` and opens the flow arrow; the executing worker adopts both
/// (work_stealing_pool::execute).  `flow_name` is the span both ends of
/// the arrow carry (e.g. "parallel.work_stealing.task").
inline void capture_task_meta(task_item& item, const char* flow_name) {
  if constexpr (telemetry::kEnabled) {
    item.ctx = telemetry::trace::current_context();
    if (item.ctx.active())
      item.flow = telemetry::trace::flow_begin(flow_name, "parallel");
    item.path = telemetry::profile::current_path();
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The archetype
// ---------------------------------------------------------------------------

/// Minimal syntactic model of Executor.  Every operation is the weakest
/// legal implementation: submitted work runs inline on the calling thread,
/// and the reported width is 1.  Algorithms instantiated with it must
/// compile — and produce correct (serial) results — without reaching
/// beyond the concept.
class executor_archetype {
 public:
  executor_archetype() = default;
  explicit executor_archetype(const pool_options& opts) { opts.validate(); }

  template <std::invocable F>
  void submit(F&& f) {
    std::invoke(std::forward<F>(f));
  }

  [[nodiscard]] unsigned worker_count() const noexcept { return 1; }
};

// Proof obligation: the archetype models the concept.  The real pool
// asserts its own conformance next to its definition
// (work_stealing_pool.hpp) to keep this header dependency-light.
static_assert(Executor<executor_archetype>);

}  // namespace cgp::parallel
