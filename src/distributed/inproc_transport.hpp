// The third backend of the Transport concept: a shared-memory mailbox
// transport with REAL cross-thread sends (DESIGN.md §13).
//
// sim_transport and parallel_transport append each send to a shard-local
// bucket and gather the buckets inside the next superstep's shard tasks.
// inproc_transport instead gives each shard of contiguous nodes a
// dedicated thread, and a send appends directly to the DESTINATION
// shard's mailbox under that mailbox's mutex — there is no global
// superstep lock and no pool.
//
// The round protocol is two barrier phases:
//
//   deliver phase   every shard thread drains its round-r mailbox (sorted
//                   into canonical order, bucketed per node) and runs its
//                   nodes' supersteps; handler sends land in the
//                   destination shards' mailboxes for round r+1;
//   main barrier    completion step (single-threaded, noexcept): round
//                   bookkeeping — quiescence / all-down / max-rounds stop
//                   decision, heartbeat beat;
//   swap phase      every thread moves its own mailbox buffer out under
//                   the mutex (no send is in flight between the barriers);
//   swap barrier    completion step: deferred crash-stops and the churn
//                   hash draws for the round about to execute.
//
// Determinism despite racing sends: arrival order in a mailbox is
// nondeterministic, but each entry carries its canonical identity
// (sender index, send sequence, duplicate-before-original bit), so a sort
// at the round boundary recovers EXACTLY the canonical order the bucket
// gather produces.  Fault decisions are the same pure hash of (seed,
// sender, sequence) the other backends use (network.hpp), drawn at the
// send site — order-independence of the hash is precisely what makes the
// lock-free schedule agree bit for bit with the sequential simulator's.
//
// Timing: synchronous only, like parallel_transport; asynchronous event
// interleaving stays the deterministic simulator's job.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "distributed/network.hpp"

namespace cgp::distributed {

class inproc_transport final : public net_base {
 public:
  /// Shard-owning worker threads: net_options::workers of them (0 = auto:
  /// hardware concurrency, at least 2 so cross-thread sends are always
  /// exercised), capped at the node count.
  explicit inproc_transport(const net_options& opts);

  /// Shard-owning threads a run spawns.
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(shard_count());
  }

 protected:
  // Only reached through the base engine, which this backend replaces;
  // kept correct (serial) for completeness.
  void for_each_shard(const std::function<void(std::size_t)>& fn) override;
  [[nodiscard]] const char* backend_name() const noexcept override {
    return "inproc";
  }
  /// The thread-owning mailbox engine described above.
  void execute_synchronous(std::size_t max_rounds) override;
  /// Cross-thread send sink: draws the hash fault plan inline, accumulates
  /// shard-local statistics, and appends survivors to the destination
  /// shard's mailbox.
  void enqueue_sync(std::size_t src, std::uint64_t seq, message&& m) override;

 private:
  /// A mailbox entry: the message plus its canonical identity.  `key` is
  /// (send sequence << 1 | original-bit) — a duplicated copy carries the
  /// even key so that sorting by (src, key) puts it BEFORE its original,
  /// matching the base engine's copy-first delivery order.
  struct routed {
    std::uint32_t src;
    std::uint64_t key;
    message msg;
  };
  /// One per shard, owned by that shard's thread between barriers and
  /// shared with senders during deliver phases.  Padded so two shards'
  /// mailbox locks never share a cache line.
  struct alignas(64) mailbox {
    std::mutex mu;
    std::vector<routed> items;
  };
  /// Send-side statistics, accumulated lock-free in the sender's shard
  /// slot and merged into run_stats after the threads join.
  struct alignas(64) shard_accum {
    std::size_t total = 0;
    std::size_t dropped = 0;
    std::size_t duplicated = 0;
    std::map<std::string, std::size_t> by_tag;
  };

  std::vector<std::unique_ptr<mailbox>> mailboxes_;  ///< per shard
  std::vector<shard_accum> accums_;                  ///< per sender shard
  /// Deliveries scheduled in the current phase (duplicates count twice) —
  /// the quiescence signal the main barrier's completion step reads.
  std::atomic<std::size_t> routed_phase_{0};
};

// Concept conformance is asserted in inproc_transport.cpp (transport.hpp
// includes this header's dependency, not the other way around).

}  // namespace cgp::distributed
