// The third backend of the Transport concept: the shared synchronous
// engine (network.hpp) with a plain-thread execution strategy
// (DESIGN.md §13).
//
// Each phase (the start phase and every round's superstep) runs shard 0
// on the calling thread and every other shard on a std::jthread spawned
// for that phase, then joins them all.  No pool, no barrier, no mailbox:
// sends fill the same per-shard buckets the other backends use, so the
// canonical delivery order, the hash fault plan and the accounting are
// the base engine's, and decisions and statistics match sim_transport's
// bit for bit.
//
// Timing: synchronous only, like parallel_transport; asynchronous event
// interleaving stays the deterministic simulator's job.
#pragma once

#include <functional>

#include "distributed/network.hpp"

namespace cgp::distributed {

class inproc_transport final : public net_base {
 public:
  /// One shard per thread: net_options::workers of them (0 = auto,
  /// at least 2), capped at the node count.
  explicit inproc_transport(const net_options& opts);

  /// Threads a phase runs on (the caller's included).
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(shard_count());
  }

 protected:
  /// Runs the shards on per-phase threads and rethrows the first captured
  /// exception in shard order once all have joined.
  void for_each_shard(const std::function<void(std::size_t)>& fn) override;
  [[nodiscard]] const char* backend_name() const noexcept override {
    return "inproc";
  }
};

}  // namespace cgp::distributed
