// The benchmark registry and sweep runner — the observatory's core loop.
//
// A benchmark here is not "a function to time" but a *claim*: this
// workload, swept over these problem sizes, should cost no more than the
// declared core::big_o.  The runner produces everything needed to audit
// that claim — robust per-iteration timing statistics at each n, the
// telemetry counter deltas attributed to each iteration (deterministic,
// unlike the clock), and an empirical fit of the sweep against the
// declared bound.  Counter attribution works because timing_result
// counts *every* workload invocation (warmup and calibration included),
// so delta / invocations is exact regardless of how calibration went.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/complexity.hpp"
#include "perf/fit.hpp"
#include "perf/stats.hpp"
#include "perf/timer.hpp"

namespace cgp::perf {

struct benchmark_def {
  std::string name;       ///< "subsystem.workload", e.g. "sequences.sort"
  std::string subsystem;  ///< coarse grouping for the report
  core::big_o declared;   ///< the performance-concept bound per iteration
  std::vector<std::size_t> sizes;  ///< the n-sweep
  /// Telemetry counter prefix attributed to this workload (e.g.
  /// "sequences.sort."); when non-empty and the workload actually bumps
  /// matching counters, the complexity fit runs on ops/iteration
  /// (deterministic, kCounterExcessTolerance) instead of wall time
  /// (kTimeExcessTolerance).
  std::string counter_prefix;
  /// Whether the workload belongs in the byte-deterministic manual-clock
  /// profile capture.  Nested fork-join workloads must opt out: a worker
  /// blocked in task_group::wait helps with whatever task is available,
  /// and those inline executions land inside the waiting frame's tick
  /// span, so its manual-clock total depends on the schedule.
  bool deterministic_profile = true;
  /// Builds the workload for one sweep size.  Setup cost (allocating
  /// inputs, constructing pools) belongs here, outside the timed region;
  /// the returned callable is what gets timed.
  std::function<std::function<void()>(std::size_t n)> setup;
};

/// One cell of the n-sweep.
struct sweep_point {
  std::size_t n = 0;
  std::size_t iterations = 0;  ///< calibrated batch size
  summary time_ns;             ///< per-iteration wall time statistics
  /// Counter growth per workload invocation, for every counter that grew.
  std::vector<std::pair<std::string, double>> counters;
  /// Sum of `counters` entries matching the def's counter_prefix.
  double prefix_ops = 0.0;
};

struct benchmark_result {
  std::string name;
  std::string subsystem;
  std::string declared;        ///< def.declared.to_string()
  std::string counter_prefix;
  std::vector<sweep_point> sweep;
  fit_result fit;
  std::string fitted_on;  ///< "counters" or "time_ns"
};

/// Order-preserving collection of benchmark definitions.
class bench_registry {
 public:
  void add(benchmark_def def);
  [[nodiscard]] const std::vector<benchmark_def>& all() const noexcept {
    return defs_;
  }
  [[nodiscard]] const benchmark_def* find(const std::string& name) const;

 private:
  std::vector<benchmark_def> defs_;
};

/// Runs one benchmark's full sweep: per n, builds the workload, brackets
/// the adaptive timer with a telemetry::counter_snapshot, and summarizes.
/// The bootstrap seed for point i is `seed + i` (deterministic per seed).
[[nodiscard]] benchmark_result run_benchmark(const benchmark_def& def,
                                             const timing_options& opts,
                                             std::uint64_t seed);

/// run_benchmark over every registered definition, in registration order.
[[nodiscard]] std::vector<benchmark_result> run_all(const bench_registry& reg,
                                                    const timing_options& opts,
                                                    std::uint64_t seed);

}  // namespace cgp::perf
