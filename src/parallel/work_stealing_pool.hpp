// Work-stealing scheduler: the library's one thread-pool model of the
// Executor concept, built for fine-grained, irregular, and NESTED
// parallelism (mold-style: one deque per worker, owner pops LIFO for
// locality, thieves steal FIFO for breadth — the oldest task is the one
// most likely to fan out further).
//
// Structure:
//   - each worker owns a lock-guarded deque; a task submitted FROM a
//     worker goes to its own deque (cache-warm, no shared-queue
//     contention), external submits land in a shared inject queue;
//   - an idle worker pops its own deque from the back, then the inject
//     queue from the front, then probes `kStealAttempts` random victims
//     plus one full round-robin scan, stealing from the FRONT of a
//     victim's deque;
//   - idle/wake protocol without thundering herds: submitters wake at
//     most ONE parked worker; a worker that claims a task while more
//     remain queued wakes one more (wake chaining), so the woken set
//     grows with the work instead of stampeding every sleeper at once;
//     parks are bounded by `kParkTimeout` to ride out lost-wakeup
//     races;
//   - nested fork-join recurses through task_group: a worker waiting on
//     a group runs its own (LIFO) splits via try_help instead of
//     blocking, so recursive parallel_for cannot deadlock the scheduler.
//
// Telemetry lives under `parallel.work_stealing.*`: queued tasks carry
// {fn, span ctx, flow, call path} inline (detail::task_item), each worker
// has a stall-watchdog heartbeat, and the steal/park/execute counters
// feed the threads-sweep benchmarks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/executor.hpp"
#include "parallel/options.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::telemetry::live {
class heartbeat;
}  // namespace cgp::telemetry::live

namespace cgp::parallel {

class work_stealing_pool {
 public:
  explicit work_stealing_pool(const pool_options& opts = {});
  /// Spawns `n` workers (0 = hardware concurrency, at least 1).
  explicit work_stealing_pool(unsigned n)
      : work_stealing_pool(pool_options{.workers = n}) {}

  /// Joins all workers; every task submitted before destruction runs
  /// first (destruction drains).
  ~work_stealing_pool();

  work_stealing_pool(const work_stealing_pool&) = delete;
  work_stealing_pool& operator=(const work_stealing_pool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept { return workers_; }

  /// Enqueues any invocable.  Concept-bounded and single-erasure: the
  /// callable is erased once into task_fn, so move-only callables work.
  /// Worker-thread submits go to the caller's own deque; external submits
  /// to the inject queue.
  template <std::invocable F>
  void submit(F&& task) {
    detail::task_item item;
    item.fn = task_fn(std::forward<F>(task));
    detail::capture_task_meta(item, "parallel.work_stealing.task");
    enqueue(std::move(item));
  }

  /// Runs `chunk_fn(0..chunks-1)` across the pool and BLOCKS until all
  /// chunks finish; exceptions from chunks are rethrown (first one wins).
  /// Chunks run through a task_group, so a call from inside a pool task
  /// helps instead of deadlocking and nested calls stay on the stealing
  /// path.
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& chunk_fn);

  /// Helping hook for task_group::wait — pops/steals one task and runs it
  /// on the calling thread if it is one of this pool's workers.  Returns
  /// false for non-workers and when nothing is runnable anywhere.
  bool try_help();

  /// True iff the CALLING thread is one of this pool's workers — i.e.
  /// try_help could ever succeed from here.  task_group::wait uses this
  /// to park external waiters untimed instead of poll-rescanning.
  [[nodiscard]] bool can_help() const noexcept;

  /// task_group's hook before a task publishes its completion: closes the
  /// task's scope and records busy_us, task_us and tasks_completed (at
  /// every nesting depth), then ends the worker's busy heartbeat unless
  /// the task ran nested while helping.
  void end_busy() noexcept;

  /// Process-wide default pool: the executor the concept-bounded
  /// algorithms and call sites use when the caller passes none.
  [[nodiscard]] static work_stealing_pool& default_pool();

 private:
  struct worker_slot {
    std::mutex m;
    std::deque<detail::task_item> dq;
  };

  void enqueue(detail::task_item&& item);
  bool next_task(unsigned self, detail::task_item& out);
  void execute(detail::task_item& item);
  /// Closes the calling worker's innermost task telemetry (once).
  void finish_task() noexcept;
  void worker_loop(unsigned idx);
  void wake_one();

  /// Random victims an idle worker probes before its full sweep.
  static constexpr unsigned kStealAttempts = 4;
  /// Longest park before an idle worker rescans (bounds the cost of a lost
  /// wakeup race).
  static constexpr std::chrono::microseconds kParkTimeout{2000};

  unsigned workers_ = 0;

  std::vector<std::unique_ptr<worker_slot>> slots_;
  std::vector<std::thread> threads_;
  std::vector<std::shared_ptr<telemetry::live::heartbeat>> heartbeats_;

  std::mutex inject_m_;
  std::deque<detail::task_item> inject_;

  std::mutex idle_m_;
  std::condition_variable idle_cv_;
  std::atomic<unsigned> sleepers_{0};
  std::atomic<std::size_t> ready_{0};  ///< queued-but-unclaimed tasks
  std::atomic<bool> stopping_{false};

  // `parallel.work_stealing.*` (README metric naming conventions).
  telemetry::counter& tasks_submitted_;
  telemetry::counter& tasks_completed_;
  telemetry::counter& steals_;
  telemetry::counter& steal_probes_;
  telemetry::counter& parks_;
  telemetry::counter& busy_us_;
  telemetry::gauge& queue_depth_;
  telemetry::histogram& task_us_;
};

static_assert(Executor<work_stealing_pool>);

}  // namespace cgp::parallel
