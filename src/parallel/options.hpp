// Executor construction options, mirroring the `net_options` redesign of
// the distributed layer (DESIGN.md §7): one aggregate, designated
// initializers at the call site, and eager validation with a descriptive
// `std::invalid_argument` instead of a misconfigured pool that misbehaves
// an hour later.
//
//   work_stealing_pool pool({.workers = 8});
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

namespace cgp::parallel {

/// Every `Executor` model (work_stealing_pool, executor_archetype)
/// constructs from this aggregate; a model that does not need the worker
/// count (the inline archetype) validates it and otherwise ignores it, so
/// options objects are portable across models — the point of
/// constructing through the concept.
struct pool_options {
  /// Worker thread count; 0 = auto (hardware concurrency, at least 1).
  unsigned workers = 0;

  /// The worker count after resolving the auto default.
  [[nodiscard]] unsigned resolved_workers() const noexcept {
    return workers != 0 ? workers
                        : std::max(1u, std::thread::hardware_concurrency());
  }

  /// Throws std::invalid_argument naming the offending knob.
  void validate() const {
    if (workers > 4096)
      throw std::invalid_argument(
          "pool_options.workers = " + std::to_string(workers) +
          " exceeds the 4096-thread sanity bound");
  }
};

}  // namespace cgp::parallel
