#include "parallel/work_stealing_pool.hpp"

#include <atomic>
#include <string>
#include <utility>

#include "parallel/task_group.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/watchdog.hpp"

namespace cgp::parallel {

namespace {

constexpr const char* kTaskName = "parallel.work_stealing.task";

unsigned next_pool_id() {
  static std::atomic<unsigned> id{0};
  return id.fetch_add(1, std::memory_order_relaxed);
}

// Which stealing pool (if any) the current thread works for, and its
// worker index there: submit routes through this to reach the caller's
// own deque, and try_help refuses foreign threads (external callers of
// run_chunks only wait, never execute).
thread_local const work_stealing_pool* tls_ws_pool = nullptr;
thread_local unsigned tls_ws_index = 0;
// Tasks open on this worker: 1 inside a task the worker claimed, more
// while that task helps (try_help) run others.
thread_local unsigned tls_ws_depth = 0;

// The innermost task this worker is executing: its scope and start
// reading, open until the pool's finish_task closes them.  A running_task
// is the thread's current task from construction to destruction.
struct running_task;
thread_local running_task* tls_task = nullptr;
struct running_task {
  explicit running_task(telemetry::scope* s = nullptr,
                        std::uint64_t t0 = 0) noexcept
      : scope(s), start(t0), outer(std::exchange(tls_task, this)) {}
  ~running_task() { tls_task = outer; }
  running_task(const running_task&) = delete;
  running_task& operator=(const running_task&) = delete;

  telemetry::scope* scope;
  std::uint64_t start;
  running_task* outer;
  bool finished = false;
};

// Cheap per-thread xorshift for victim probing.  Deterministically seeded
// from the worker index — probe SEQUENCES differ across workers, which is
// all randomized stealing needs, and nothing here depends on wall-clock
// entropy.
thread_local std::uint32_t tls_rng_state = 0;

std::uint32_t next_rand() {
  std::uint32_t x = tls_rng_state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  tls_rng_state = x;
  return x;
}

}  // namespace

work_stealing_pool::work_stealing_pool(const pool_options& opts)
    : tasks_submitted_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.tasks_submitted")),
      tasks_completed_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.tasks_completed")),
      steals_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.steals")),
      steal_probes_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.steal_probes")),
      parks_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.parks")),
      busy_us_(telemetry::registry::global().get_counter(
          "parallel.work_stealing.busy_us")),
      queue_depth_(telemetry::registry::global().get_gauge(
          "parallel.work_stealing.queue_depth")),
      task_us_(telemetry::registry::global().get_histogram(
          "parallel.work_stealing.task_us")) {
  opts.validate();
  workers_ = opts.resolved_workers();
  slots_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i)
    slots_.push_back(std::make_unique<worker_slot>());
  const unsigned pool_id = next_pool_id();
  heartbeats_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i)
    heartbeats_.push_back(
        telemetry::live::watchdog::global().register_heartbeat(
            "parallel.work_stealing.p" + std::to_string(pool_id) + ".worker" +
            std::to_string(i)));
  threads_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

work_stealing_pool::~work_stealing_pool() {
  stopping_.store(true, std::memory_order_release);
  {
    // Empty critical section: orders the store against the workers'
    // predicate re-check under idle_m_, so no sleeper misses the stop.
    const std::lock_guard lock(idle_m_);
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  heartbeats_.clear();
  if constexpr (telemetry::kEnabled)
    telemetry::live::watchdog::global().prune_expired();
}

void work_stealing_pool::wake_one() {
  if (sleepers_.load(std::memory_order_acquire) == 0) return;
  // The lock pairs with the sleeper's ++sleepers_/wait under idle_m_,
  // closing the "checked sleepers_ before the sleeper registered" race;
  // the bounded park timeout backstops anything left.
  const std::lock_guard lock(idle_m_);
  idle_cv_.notify_one();
}

void work_stealing_pool::enqueue(detail::task_item&& item) {
  // ready_ is bumped BEFORE the publishing lock is released: claims
  // (fetch_sub in next_task) run under the same lock, so the increment
  // for an item always lands before any decrement for it — the counter
  // can never transiently wrap below zero and fake "work everywhere" to
  // sleepers or stall the stopping&&drained exit check.
  if (tls_ws_pool == this) {
    // Worker self-submit: own deque, back (LIFO hot end).
    worker_slot& s = *slots_[tls_ws_index];
    const std::lock_guard lock(s.m);
    s.dq.push_back(std::move(item));
    ready_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    const std::lock_guard lock(inject_m_);
    inject_.push_back(std::move(item));
    ready_.fetch_add(1, std::memory_order_acq_rel);
  }
  tasks_submitted_.add();
  queue_depth_.add();
  wake_one();
}

// Claim order: own deque back (LIFO, cache-warm), inject queue front
// (FIFO fairness for external work), then stealing — `kStealAttempts`
// random probes followed by one full round-robin sweep so a lone loaded
// victim is always found before parking.  Thieves take the FRONT of a
// victim's deque: the oldest task is the coarsest split, the one worth
// moving across workers.
bool work_stealing_pool::next_task(unsigned self, detail::task_item& out) {
  {
    worker_slot& s = *slots_[self];
    const std::lock_guard lock(s.m);
    if (!s.dq.empty()) {
      out = std::move(s.dq.back());
      s.dq.pop_back();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      queue_depth_.sub();
      return true;
    }
  }
  {
    const std::lock_guard lock(inject_m_);
    if (!inject_.empty()) {
      out = std::move(inject_.front());
      inject_.pop_front();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      queue_depth_.sub();
      return true;
    }
  }
  if (workers_ > 1) {
    auto steal_from = [&](unsigned victim) {
      if (victim == self) return false;
      worker_slot& v = *slots_[victim];
      const std::lock_guard lock(v.m);
      steal_probes_.add();
      if (v.dq.empty()) return false;
      out = std::move(v.dq.front());
      v.dq.pop_front();
      ready_.fetch_sub(1, std::memory_order_acq_rel);
      queue_depth_.sub();
      steals_.add();
      return true;
    };
    for (unsigned a = 0; a < kStealAttempts; ++a)
      if (steal_from(next_rand() % workers_)) return true;
    for (unsigned v = 0; v < workers_; ++v)
      if (steal_from((self + 1 + v) % workers_)) return true;
  }
  return false;
}

// Runs a task under its submitter's trace context (inactive when the
// submitter was untraced) and shadow stack.  The task's scope opens and
// closes on the two readings the pool takes for busy_us / task_us; a
// task_group task closes it in end_busy, before publishing its completion.
void work_stealing_pool::execute(detail::task_item& item) {
  ++tls_ws_depth;
  if constexpr (telemetry::kEnabled) {
    static const telemetry::scope_site kTask(
        {.trace = kTaskName, .cat = "parallel", .frame = kTaskName});
    const std::uint64_t start = telemetry::steady_now_ns();
    const telemetry::trace::context_scope adopt(item.ctx);
    const telemetry::profile::adopt_scope padopt(item.path);
    telemetry::scope task(kTask, start);
    telemetry::trace::flow_end(item.flow, kTaskName, "parallel");
    running_task run(&task, start);
    item.fn();
    finish_task();
  } else {
    running_task run;
    item.fn();
    finish_task();
  }
  --tls_ws_depth;
}

void work_stealing_pool::finish_task() noexcept {
  running_task& run = *tls_task;
  if (run.finished) return;
  run.finished = true;
  if constexpr (telemetry::kEnabled) {
    const std::uint64_t end = telemetry::steady_now_ns();
    run.scope->close(end);
    const std::uint64_t us = (end - run.start) / 1000;
    busy_us_.add(us);
    task_us_.record(us);
  }
  tasks_completed_.add();
}

void work_stealing_pool::end_busy() noexcept {
  if (tls_ws_pool != this || tls_task == nullptr) return;
  finish_task();
  if (tls_ws_depth == 1) heartbeats_[tls_ws_index]->end_work();
}

bool work_stealing_pool::can_help() const noexcept {
  return tls_ws_pool == this;
}

bool work_stealing_pool::try_help() {
  if (tls_ws_pool != this) return false;
  detail::task_item item;
  if (!next_task(tls_ws_index, item)) return false;
  execute(item);
  return true;
}

void work_stealing_pool::worker_loop(unsigned idx) {
  tls_ws_pool = this;
  tls_ws_index = idx;
  tls_rng_state = 0x9E3779B9u * (idx + 1) | 1u;  // golden-ratio spread, odd
  telemetry::live::heartbeat& hb = *heartbeats_[idx];
  detail::task_item item;
  for (;;) {
    if (next_task(idx, item)) {
      // Wake chaining: if more work remains queued after this claim, pull
      // ONE more sleeper in.  Each woken worker that finds work wakes the
      // next — the active set grows geometrically with load, and an
      // isolated submit wakes exactly one thread instead of the herd.
      if (ready_.load(std::memory_order_acquire) > 0) wake_one();
      hb.begin_work();
      execute(item);
      hb.end_work();
      item.fn = task_fn();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) &&
        ready_.load(std::memory_order_acquire) == 0)
      return;  // stopping and drained
    // Park, bounded: the timeout re-arms the scan so a wakeup lost to the
    // sleepers_-vs-enqueue race costs at most kParkTimeout.
    parks_.add();
    std::unique_lock lock(idle_m_);
    sleepers_.fetch_add(1, std::memory_order_acq_rel);
    idle_cv_.wait_for(lock, kParkTimeout, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             ready_.load(std::memory_order_acquire) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void work_stealing_pool::run_chunks(
    std::size_t chunks, const std::function<void(std::size_t)>& chunk_fn) {
  if (chunks == 0) return;
  static const telemetry::scope_site kSite(
      {.metrics = "parallel.work_stealing.run_chunks",
       .trace = "parallel.work_stealing.run_chunks",
       .cat = "parallel",
       .frame = "parallel.work_stealing.run_chunks"});
  telemetry::scope chunks_scope(kSite);
  chunks_scope.charge(chunks);
  if (chunks == 1) {
    chunk_fn(0);
    return;
  }
  task_group<work_stealing_pool> group(*this);
  for (std::size_t c = 0; c < chunks; ++c)
    group.run([&chunk_fn, c] { chunk_fn(c); });
  group.wait();
}

work_stealing_pool& work_stealing_pool::default_pool() {
  static work_stealing_pool pool;
  return pool;
}

}  // namespace cgp::parallel
