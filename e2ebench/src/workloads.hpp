// The four workloads and the helpers their runs share.
//
// Thread budget: the load comes from one process with at most four busy
// threads on a four-core machine — three pool workers or three
// closed-loop clients, plus the main thread, which only waits while the
// workers run.  Keeping one core free is what keeps the medians steady.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace e2e {

inline constexpr unsigned kWorkers = 3;

/// Set-ups timed after each measured pass (see time_setups).
inline constexpr int kSetupsPerPass = 5;

/// Largest closure error a traced run may show: layer self times plus
/// measured idle time must equal threads x traced wall within 0.5%.
inline constexpr double kClosureTolerance = 0.005;

[[nodiscard]] outcome run_lint_cold(const run_config& cfg);
[[nodiscard]] outcome run_lint_edit(const run_config& cfg);
[[nodiscard]] outcome run_simplify_batch(const run_config& cfg);
[[nodiscard]] outcome run_net_churn(const run_config& cfg);

/// Seconds each of the two phases of a traced run measures: untraced
/// passes for the base rate and counters, then traced passes.
[[nodiscard]] inline double traced_phase_seconds(const run_config& cfg) {
  return cfg.seconds / 2 > 1.0 ? cfg.seconds / 2 : 1.0;
}

/// Times `reps` set-ups and appends them to `out`.  `make` builds what a
/// user pays for before the first item and returns it, so it is torn down
/// after the clock stops.  Workloads call this between passes: a set-up
/// takes microseconds, and samples taken at one moment all see that
/// moment's machine load, which varies over seconds on a shared host.
template <class Make>
void time_setups(std::vector<double>& out, int reps, Make make) {
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock_type::now();
    auto held = make();
    out.push_back(seconds_since(t0));
  }
}

/// Calls `pass` until `seconds` have passed, and at least `min_passes`
/// times.
template <class Pass>
void repeat_for(double seconds, std::size_t min_passes, Pass pass) {
  const auto t0 = clock_type::now();
  for (std::size_t i = 0; i < min_passes || seconds_since(t0) < seconds; ++i)
    pass();
}

/// Mean self time per span of `name`, in microseconds (0 when none ran).
[[nodiscard]] double per_span_us(const spans::split& sp,
                                 const std::string& name);

/// Records a traced split's closure in the outcome and marks the run
/// invalid when the split is broken or does not close.
void check_split(outcome& out, const spans::split& sp,
                 const std::string& label);

}  // namespace e2e
