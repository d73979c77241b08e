// Recursive fork-join over any Executor.
//
// A task_group owns a set of forked tasks and a blocking `wait()` barrier.
// The part that makes NESTED parallelism safe is helping: while waiting,
// the caller first drains runnable tasks through the executor's
// `try_help()` hook (a pool worker pops its own deque / steals / pops the
// shared queue) instead of blocking a scarce worker thread.  A nested
// `parallel_for` issued from inside a pool task therefore executes its
// splits on the very worker that is waiting for them — the submit queue
// cannot deadlock on its own barrier, which is what hard-wired
// `run_chunks`-style fan-out did under recursion.
//
// Executors without a try_help hook (the inline archetype) skip straight
// to the condition-variable wait; the archetype runs tasks inline at
// submit, so its groups are already complete by then.
//
// Only waiters that can actually help (pool workers, per the executor's
// can_help() hook) park with a bounded timeout: between "nothing runnable
// right now" and "parked on the group cv", another thread may enqueue a
// task this waiter could help with, and the periodic rescan bounds that
// lost opportunity to one timeout period.  Waiters that can never help —
// external callers of run_chunks — park untimed: the completion notify in
// invoke_one is never lost (decrement and wake share one critical
// section), so polling would only burn cycles.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <utility>

#include "parallel/executor.hpp"

namespace cgp::parallel {

template <Executor E>
class task_group {
 public:
  explicit task_group(E& exec) : exec_(&exec) {}

  /// Waits for stragglers; never lets tasks outlive the group state.
  ~task_group() {
    if (pending_.load(std::memory_order_acquire) != 0) try_wait_no_throw();
  }

  task_group(const task_group&) = delete;
  task_group& operator=(const task_group&) = delete;

  /// Forks `f` onto the executor.  Exceptions thrown by `f` are captured
  /// (first one wins) and rethrown from wait().  If submission itself
  /// fails (e.g. bad_alloc while erasing the callable), the fork count is
  /// rolled back before rethrowing so wait() never blocks on a task that
  /// was never enqueued.
  template <std::invocable F>
  void run(F&& f) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    try {
      exec_->submit(
          [this, fn = std::forward<F>(f)]() mutable { invoke_one(fn); });
    } catch (...) {
      // Same decrement-and-wake critical section as invoke_one, in case a
      // concurrent waiter is already parked on the barrier.
      const std::lock_guard lock(m_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        cv_.notify_all();
      throw;
    }
  }

  /// Blocks until every forked task has finished, helping the executor
  /// run queued tasks meanwhile.  Rethrows the first captured exception.
  void wait() {
    wait_impl();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  /// Tasks forked and not yet completed.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  template <class F>
  void invoke_one(F& fn) {
    try {
      fn();
    } catch (...) {
      const std::lock_guard lock(m_);
      if (!error_) error_ = std::current_exception();
    }
    // Liveness-tracking executors close the task's telemetry and end the
    // worker's busy span first, so a waiter sees both once it returns.
    if constexpr (requires(E& e) { e.end_busy(); }) exec_->end_busy();
    // The decrement and the wake form ONE critical section.  A waiter may
    // only conclude "done" from a pending_==0 it observed either under
    // this mutex or by locking it afterwards (wait_impl), so by the time
    // the group can be destroyed the final task has left this scope — the
    // cv/mutex members are never touched after the barrier opens.
    const std::lock_guard lock(m_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      cv_.notify_all();
  }

  void wait_impl() {
    using namespace std::chrono_literals;
    // Can this thread ever run tasks itself?  Executors with a can_help()
    // hook answer for the CALLING thread (pool workers help, external
    // callers never do); executors with only try_help are assumed
    // helpers; executors with neither (the inline archetype) are not.
    // Worker status is a thread_local property — it cannot change while
    // we wait — so deciding once up front is sound.
    const bool helper = [this] {
      if constexpr (requires(E& e) {
                      { e.try_help() } -> std::convertible_to<bool>;
                    }) {
        if constexpr (requires(const E& e) {
                        { e.can_help() } -> std::convertible_to<bool>;
                      })
          return static_cast<bool>(exec_->can_help());
        else
          return true;
      } else {
        return false;
      }
    }();
    for (;;) {
      if (pending_.load(std::memory_order_acquire) == 0) {
        // Rendezvous with the final task: its decrement-to-zero happened
        // inside the mutex, so acquiring it here blocks until that task
        // has released its critical section and will never touch the
        // group again.  Only then may our caller destroy us.
        const std::lock_guard lock(m_);
        return;
      }
      // Helping phase: run whatever the executor can hand this thread.
      if constexpr (requires(E& e) {
                      { e.try_help() } -> std::convertible_to<bool>;
                    }) {
        while (helper && pending_.load(std::memory_order_acquire) != 0 &&
               exec_->try_help()) {
        }
      }
      std::unique_lock lock(m_);
      if (!helper) {
        // A thread that can never execute tasks needs no rescan: the
        // completion notify in invoke_one (decrement + wake under this
        // mutex, so never lost) is its only wake source.  Park untimed
        // instead of polling at ~1kHz for the whole fan-out.
        cv_.wait(lock, [this] {
          return pending_.load(std::memory_order_acquire) == 0;
        });
        return;
      }
      // Helping waiter parks bounded: between "nothing runnable" and
      // "parked", another thread may enqueue a task this waiter could
      // help with; the timeout re-arms the scan.
      if (cv_.wait_for(lock, 1ms, [this] {
            return pending_.load(std::memory_order_acquire) == 0;
          }))
        return;
    }
  }

  void try_wait_no_throw() noexcept {
    try {
      wait_impl();
    } catch (...) {
    }
  }

  E* exec_;
  std::atomic<std::size_t> pending_{0};
  std::mutex m_;
  std::condition_variable cv_;
  std::exception_ptr error_;
};

}  // namespace cgp::parallel
