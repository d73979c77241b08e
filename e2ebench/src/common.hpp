// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
// the allocation counter, peak memory, and the result record every
// workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of a sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// part / whole, or 0 when there is no whole.
[[nodiscard]] inline double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// Allocation counting: the benchmark binary replaces the global
/// `operator new` with a counting one (alloc_count.cpp).  Counting is off
/// unless a traced run switches it on, so an untraced run pays one relaxed
/// flag load per allocation.
struct alloc_counter {
  static void enable(bool on) noexcept;
  [[nodiscard]] static std::uint64_t count() noexcept;
};

/// Peak resident set of this process since the last `reset_peak_rss`, in
/// MB.  Workloads reset it before each measured pass and read it after, so
/// that the figure does not depend on how many passes a run fits in or on
/// which pass happened to fragment the heap most.
[[nodiscard]] double peak_rss_mb();
/// Lowers the peak resident set to the current one (Linux clear_refs).
/// Where the kernel cannot, the peak stays that of the whole process.
void reset_peak_rss();

/// Options every workload receives.
struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Negative control: plant one wrong expected answer, which must make
  /// the run fail.
  bool plant_wrong_answer = false;
};

/// What a workload reports.  `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one; `absent` names
/// each per-layer metric the workload cannot measure, with the reason.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> absent;
  std::vector<std::string> notes;  ///< extra lines for the printed table
  bool trace_valid = true;
};

/// Fills the end-to-end metrics of an untraced run from its samples:
/// per-pass item rates, per-request latencies, set-up times and per-pass
/// peak resident sets.
void fill_end_to_end(outcome& out, const std::vector<double>& rates,
                     const std::vector<double>& latencies_ms,
                     const std::vector<double>& setups_s,
                     const std::vector<double>& peaks_mb);

}  // namespace e2e
