// Steady-clock micro-benchmark timer: warmup, adaptive iteration-count
// calibration, and repeated measured batches.
//
// A single invocation of a fast operation is unmeasurable (clock
// granularity) and a single long batch hides variance, so the timer does
// what mature harnesses do: warm the code and data up, grow the batch
// size until one batch meets a minimum wall time (so the clock read is a
// small fraction of the measurement), then run a fixed number of measured
// batches and report each batch's per-iteration time.  The caller feeds
// those samples to perf::summarize for robust statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace cgp::perf {

struct timing_options {
  /// Target wall time per measured batch; the calibration loop scales the
  /// per-batch iteration count up until one batch takes at least this.
  std::uint64_t min_sample_ns = 2'000'000;
  /// Measured batches (odd keeps the median a real order statistic).
  std::size_t repeats = 9;
  /// Un-measured warmup invocations before calibration.
  std::size_t warmup = 1;
  /// Hard cap on iterations per batch (guards against a no-op benchmark
  /// spinning the calibration loop forever).
  std::size_t max_iterations = std::size_t{1} << 20;
};

struct timing_result {
  std::size_t iterations = 0;  ///< per measured batch, after calibration
  /// One entry per measured batch: that batch's mean ns per iteration.
  std::vector<double> ns_per_iteration;
  /// Total `fn` invocations across warmup + calibration + measurement —
  /// the divisor that turns a telemetry counter delta into ops/iteration.
  std::uint64_t invocations = 0;
};

/// Runs `fn()` with warmup and calibration, then `opts.repeats` measured
/// batches of the calibrated iteration count.
template <class Fn>
[[nodiscard]] timing_result measure(Fn&& fn, const timing_options& opts = {}) {
  timing_result r;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, opts.warmup); ++i) {
    fn();
    ++r.invocations;
  }

  // Calibrate: grow the batch until it meets min_sample_ns.  When a batch
  // produced a usable time, jump straight at the target (with 25%
  // headroom) instead of doubling all the way up.
  std::size_t iters = 1;
  for (;;) {
    const std::uint64_t t0 = telemetry::steady_now_ns();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const std::uint64_t dt = telemetry::steady_now_ns() - t0;
    r.invocations += iters;
    if (dt >= opts.min_sample_ns || iters >= opts.max_iterations) break;
    std::uint64_t next = iters * 2;
    if (dt > 0) {
      const double scale =
          static_cast<double>(opts.min_sample_ns) / static_cast<double>(dt);
      next = std::max<std::uint64_t>(
          next, static_cast<std::uint64_t>(static_cast<double>(iters) * scale *
                                           1.25) +
                    1);
    }
    iters = static_cast<std::size_t>(
        std::min<std::uint64_t>(next, opts.max_iterations));
  }

  r.iterations = iters;
  r.ns_per_iteration.reserve(opts.repeats);
  for (std::size_t s = 0; s < opts.repeats; ++s) {
    const std::uint64_t t0 = telemetry::steady_now_ns();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const std::uint64_t dt = telemetry::steady_now_ns() - t0;
    r.invocations += iters;
    r.ns_per_iteration.push_back(static_cast<double>(dt) /
                                 static_cast<double>(iters));
  }
  return r;
}

}  // namespace cgp::perf
