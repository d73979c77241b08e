#include "distributed/inproc_transport.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "distributed/transport.hpp"
#include "telemetry/health.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/watchdog.hpp"

namespace cgp::distributed {

// Proof obligation: the mailbox backend models the Transport concept, so
// every concept-bounded driver runs on it unchanged.
static_assert(Transport<inproc_transport>);

namespace {

/// net_options::workers -> shard count: 0 = auto resolves to at least 2 so
/// cross-thread sends are exercised even on one-core machines.
std::size_t resolved_workers(const net_options& opts) {
  return opts.workers != 0
             ? opts.workers
             : std::max(2u, std::thread::hardware_concurrency());
}

}  // namespace

inproc_transport::inproc_transport(const net_options& opts)
    : net_base(opts, resolved_workers(opts)) {
  if (opts.mode == timing::asynchronous)
    throw std::invalid_argument(
        "inproc_transport implements only timing::synchronous supersteps; "
        "use sim_transport for timing::asynchronous runs");
  mailboxes_.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s)
    mailboxes_.push_back(std::make_unique<mailbox>());
  accums_.resize(shard_count());
}

void inproc_transport::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  for (std::size_t s = 0; s < shard_count(); ++s) fn(s);
}

void inproc_transport::enqueue_sync(std::size_t src, std::uint64_t seq,
                                    message&& m) {
  // Runs on the SENDER's shard thread.  The statistics slots are the
  // sender's own (shard accumulator, per-node sent count), the fault plan
  // is the order-independent hash, and only the final mailbox append takes
  // a lock — the destination shard's, never a global one.
  shard_accum& acc = accums_[shard_of(src)];
  ++acc.total;
  ++acc.by_tag[m.tag];
  ++stats_.messages_sent_per_node[src];
  const fault_draw d = draw_faults(src, seq);
  if (d.drop) {
    ++acc.dropped;
    if (health_) health_->on_send(src, true, false);
    return;
  }
  // Health hooks at the send site (relaxed atomics, the same slots the
  // base engine's per-round folds feed — the hash fault plan keeps the
  // counts identical across backends for a fixed seed).
  if (health_) {
    health_->on_send(src, false, d.dup);
    health_->on_delivered(static_cast<std::size_t>(m.dst));
    if (d.dup) health_->on_delivered(static_cast<std::size_t>(m.dst));
  }
  mailbox& box = *mailboxes_[shard_of(static_cast<std::size_t>(m.dst))];
  const std::uint64_t original_key = (seq << 1) | 1u;
  if (d.dup) {
    ++acc.duplicated;
    message copy(m);
    std::scoped_lock lock(box.mu);
    box.items.push_back(
        routed{static_cast<std::uint32_t>(src), seq << 1, std::move(copy)});
    box.items.push_back(
        routed{static_cast<std::uint32_t>(src), original_key, std::move(m)});
    routed_phase_.fetch_add(2, std::memory_order_relaxed);
    return;
  }
  {
    std::scoped_lock lock(box.mu);
    box.items.push_back(
        routed{static_cast<std::uint32_t>(src), original_key, std::move(m)});
  }
  routed_phase_.fetch_add(1, std::memory_order_relaxed);
}

void inproc_transport::execute_synchronous(std::size_t max_rounds) {
  for (shard_accum& acc : accums_) {
    acc.total = acc.dropped = acc.duplicated = 0;
    acc.by_tag.clear();
  }
  routed_phase_.store(0, std::memory_order_relaxed);
  round_ = 0;

  std::mutex err_mu;
  std::exception_ptr first_error;
  bool error = false;
  const auto record_error = [&](std::exception_ptr e) {
    const std::scoped_lock lock(err_mu);
    if (!first_error) first_error = std::move(e);
    error = true;
  };

  // Round bookkeeping, mirroring the base engine's loop exactly (including
  // its rounds-accounting: a quiescent or all-down stop after round r
  // records r; running out the budget records max_rounds + 1; a zero
  // budget records 1).  Runs single-threaded in the barrier's completion
  // step; the barrier orders it against every worker's phase.
  bool stop = false;
  bool had_due = false;
  std::size_t live_routed = 0;
  const auto on_phase_done = [&]() noexcept {
    const std::size_t routed =
        routed_phase_.exchange(0, std::memory_order_relaxed);
    if (run_heartbeat_) run_heartbeat_->beat();
    if (error) {
      stop = true;
      return;
    }
    // Single-threaded barrier point: fold the round into the health
    // roll-ups BEFORE round_ advances, so round indices match the base
    // engine exactly (0 = start phase, then 1..max_rounds).
    if (health_)
      health_->end_round(round_, phase_trace_id_, phase_parent_span_);
    if (round_ == 0) {  // the start phase just completed
      had_due = routed > 0;
      round_ = 1;
      if (max_rounds == 0) stop = true;
      return;
    }
    live_routed += routed;
    if (all_down()) {
      stop = true;
      return;
    }
    if (!had_due && routed == 0) {  // quiescent
      stop = true;
      return;
    }
    if (round_ == max_rounds) {
      ++round_;  // budget exhausted without quiescence
      stop = true;
      return;
    }
    had_due = routed > 0;
    ++round_;
  };
  const auto on_swap_done = [&]() noexcept {
    // Every mailbox is swapped out and no send is in flight: crash-stop
    // whose time has come, draw this round's churn.
    apply_round_faults();
  };

  const auto parties = static_cast<std::ptrdiff_t>(shard_count());
  std::barrier bar_main(parties, on_phase_done);
  std::barrier bar_swap(parties, on_swap_done);

  const auto worker = [&](std::size_t s) {
    const auto [lo, hi] = shard_range(s);
    try {
      for (std::size_t i = lo; i < hi; ++i) run_node_start(i);
    } catch (...) {
      record_error(std::current_exception());
    }
    bar_main.arrive_and_wait();
    std::vector<routed> local;   // this shard's round-r mail, recycled
    std::vector<const message*> arena;  // bucketed per node, recycled
    while (!stop) {
      {
        const std::scoped_lock lock(mailboxes_[s]->mu);
        local.swap(mailboxes_[s]->items);
      }
      bar_swap.arrive_and_wait();
      try {
        // Recover canonical order from the racy arrival order: sort by
        // (destination, sender, sequence-with-duplicate-bit).  Each node's
        // run is then exactly the mailbox the base engine's gather would
        // have handed it.
        std::sort(local.begin(), local.end(),
                  [](const routed& a, const routed& b) {
                    return std::tie(a.msg.dst, a.src, a.key) <
                           std::tie(b.msg.dst, b.src, b.key);
                  });
        arena.clear();
        arena.reserve(local.size());
        for (const routed& r : local) arena.push_back(&r.msg);
        std::size_t pos = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t begin = pos;
          while (pos < arena.size() &&
                 static_cast<std::size_t>(arena[pos]->dst) == i)
            ++pos;
          node_superstep(i, std::span<const message* const>(
                                arena.data() + begin, pos - begin));
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      local.clear();
      bar_main.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s)
    threads.emplace_back(worker, s);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  stats_.rounds = round_;

  // Merge the shard-local send ledgers; the per-node and per-receiver
  // arrays were written node-locally and need no merge.
  for (const shard_accum& acc : accums_) {
    stats_.messages_total += acc.total;
    stats_.messages_dropped += acc.dropped;
    stats_.messages_duplicated += acc.duplicated;
    for (const auto& [tag, count] : acc.by_tag)
      stats_.messages_by_tag[tag] += count;
  }
  // Feed the live sampler the same totals the other backends report
  // (start-phase sends are excluded from the routed counter there too).
  auto& reg = telemetry::registry::global();
  reg.get_counter("distributed.network.live_messages_routed")
      .add(live_routed);
  reg.get_counter("distributed.network.live_faults")
      .add(stats_.messages_dropped + stats_.messages_duplicated);
}

}  // namespace cgp::distributed
