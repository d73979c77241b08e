// The parallel backend of the Transport concept: each synchronous
// superstep fans the per-SHARD slices (the gather of the shard's buckets +
// deliveries + on_round for the shard's contiguous node range, whose sends
// draw faults and fill the shard's own buckets) out across the
// work-stealing pool and joins them at the round barrier.  One shard per
// worker: a million-node superstep is `workers` tasks over recycled
// arenas, not a million task submissions.
//
// Determinism: identical to sim_transport by construction.  Shard tasks
// touch only shard-local state (the shard's accumulator, bucket row and
// inbox, its nodes' rngs, stats slots and decision maps), the fault plan
// is a pure hash, and the gather visits source shards in canonical sender
// order (see network.hpp).  For a fixed seed, decisions and run_stats
// match the sequential simulator bit for bit, at any shard count.
//
// Timing: implements `timing::synchronous` only — asynchronous event
// interleaving is the deterministic simulator's job (see the backend
// matrix in DESIGN.md §7); constructing this backend with
// timing::asynchronous throws.
#pragma once

#include <functional>

#include "distributed/network.hpp"
#include "parallel/work_stealing_pool.hpp"

namespace cgp::distributed {

class parallel_transport final : public net_base {
 public:
  /// Workers: net_options::workers threads (0 = auto: hardware
  /// concurrency, at least 2 so concurrency is always exercised).
  explicit parallel_transport(const net_options& opts);

  /// Worker threads executing supersteps.
  [[nodiscard]] unsigned workers() const noexcept {
    return pool_.worker_count();
  }

 protected:
  void for_each_shard(const std::function<void(std::size_t)>& fn) override;
  [[nodiscard]] const char* backend_name() const noexcept override {
    return "parallel";
  }

 private:
  parallel::work_stealing_pool pool_;
};

}  // namespace cgp::distributed
