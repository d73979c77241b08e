#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace e2e {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  // VmHWM follows reset_peak_rss; ru_maxrss never comes down.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak resident set size
    std::fclose(f);
  }
}

void fill_end_to_end(outcome& out, const std::vector<double>& rates,
                     const std::vector<double>& latencies_ms,
                     const std::vector<double>& setups_s,
                     const std::vector<double>& peaks_mb) {
  out.metrics["items_per_s"] = median(rates);
  // The tail is read where at least ten samples lie beyond it: at the 99th
  // percentile of lint_edit's requests, but at a lower one on the batch
  // workloads, whose latency samples are their few dozen passes.  The
  // slowest of those tracks bursts of load from other tenants of the host.
  const double n = static_cast<double>(latencies_ms.size());
  const double tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  out.metrics["p50_ms"] = quantile(latencies_ms, 0.50);
  out.metrics["p99_ms"] = quantile(latencies_ms, tail_q);
  out.metrics["setup_s"] = median(setups_s);
  out.metrics["peak_rss_mb"] = median(peaks_mb);
  char line[256];
  std::snprintf(line, sizeof line,
                "samples: %zu rates (q1 %.6g, q3 %.6g), %zu latencies (p99_ms "
                "read at quantile %.3f), %zu set-ups (q1 %.3g s, q3 %.3g s)",
                rates.size(), quantile(rates, 0.25), quantile(rates, 0.75),
                latencies_ms.size(), tail_q, setups_s.size(),
                quantile(setups_s, 0.25), quantile(setups_s, 0.75));
  out.notes.emplace_back(line);
}

double per_span_us(const spans::split& sp, const std::string& name) {
  const auto n = sp.count.find(name);
  if (n == sp.count.end() || n->second == 0) return 0.0;
  return sp.self_s.at(name) / static_cast<double>(n->second) * 1e6;
}

void check_split(outcome& out, const spans::split& sp,
                 const std::string& label) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: wall %.4f s, capacity %.4f s = self %.4f s + idle "
                "%.4f s (closure error %.2e, tolerance %.1e)",
                label.c_str(), sp.wall_s, sp.capacity_s, sp.busy_s,
                sp.idle_s, sp.closure_error, kClosureTolerance);
  out.notes.emplace_back(line);
  if (!sp.problem.empty() || !(sp.closure_error <= kClosureTolerance)) {
    out.trace_valid = false;
    out.notes.push_back("INVALID trace (" + label + "): " +
                        (sp.problem.empty() ? "layer self times do not sum "
                                              "to the traced wall total"
                                            : sp.problem));
  }
}

}  // namespace e2e
