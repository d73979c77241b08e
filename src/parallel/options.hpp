// Unified executor construction knobs, mirroring the `net_options`
// redesign of the distributed layer (DESIGN.md §7): one aggregate naming
// every orthogonal dimension, designated initializers at the call site,
// and eager validation with a descriptive `std::invalid_argument` instead
// of a misconfigured pool that misbehaves an hour later.
//
//   work_stealing_pool pool({.workers = 8, .steal_attempts = 2});
//   work_stealing_pool bounded({.workers = 4, .queue_capacity = 4096});
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

namespace cgp::parallel {

/// Aggregate of every orthogonal executor construction dimension.  Every
/// `Executor` model (work_stealing_pool, executor_archetype) constructs
/// from it; knobs a model does not need (all of them, for the inline
/// archetype) are validated but otherwise ignored, so options objects are
/// portable across models — the point of constructing through the
/// concept.
struct pool_options {
  /// Worker thread count; 0 = auto (hardware concurrency, at least 1).
  unsigned workers = 0;
  /// Soft bound on externally submitted, unclaimed tasks (the inject
  /// queue); 0 = unbounded.  When the bound is hit, an external `submit`
  /// blocks the producer until a consumer drains
  /// (backpressure, not rejection — fork-join callers would deadlock on
  /// rejection).
  std::size_t queue_capacity = 0;
  /// Victims probed per failed local pop before the worker considers
  /// parking.  Every probe round still scans all peers
  /// once; this knob caps the *random* probes that precede the scan.
  unsigned steal_attempts = 4;
  /// Idle workers park on a condition variable for at most this long
  /// before rescanning (bounds the cost of a lost wakeup race).
  std::uint32_t park_timeout_us = 2000;

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
    if (queue_capacity != 0 && queue_capacity < resolved_workers())
      throw std::invalid_argument(
          "pool_options.queue_capacity = " + std::to_string(queue_capacity) +
          " is smaller than the worker count (" +
          std::to_string(resolved_workers()) +
          "); a pool that cannot hold one task per worker serializes");
    if (steal_attempts == 0)
      throw std::invalid_argument(
          "pool_options.steal_attempts must be at least 1; a thief that "
          "never probes can never steal");
    if (steal_attempts > 1024)
      throw std::invalid_argument(
          "pool_options.steal_attempts = " + std::to_string(steal_attempts) +
          " exceeds the 1024-probe sanity bound");
    if (park_timeout_us == 0)
      throw std::invalid_argument(
          "pool_options.park_timeout_us must be nonzero; a zero park "
          "timeout spins idle workers at 100% CPU");
    if (park_timeout_us > 10'000'000)
      throw std::invalid_argument(
          "pool_options.park_timeout_us = " +
          std::to_string(park_timeout_us) +
          " exceeds the 10-second sanity bound");
  }
};

}  // namespace cgp::parallel
