// BENCH_perf.json assembly and the regression gate.
//
// The report is the observatory's durable artifact: a machine-readable
// trajectory point (schema cgp.perf.v1) that CI uploads on every run and
// compares against the checked-in bench/baseline.json.  The gate is
// deliberately asymmetric about what it trusts: telemetry counters are
// deterministic, so a small counter ratio (default 1.30) catches a real
// algorithmic regression without false positives; wall time is noisy and
// machine-dependent, so time only gates when the *entire* bootstrap
// confidence interval clears a generous multiple of the baseline median —
// a different machine being 2x slower passes, a quadratic slipped into a
// linear loop does not.
#pragma once

#include <string>
#include <vector>

#include "perf/benchmark.hpp"
#include "perf/env_info.hpp"
#include "telemetry/export.hpp"

namespace cgp::perf {

/// Schema tag stamped into every report.
inline constexpr const char* kSchema = "cgp.perf.v1";

/// Builds the full report document:
/// {"schema","environment","benchmarks":[{name, subsystem, declared,
///   fitted_on, fit:{verdict,exponent,excess,r2,detail},
///   sweep:[{n, iterations, time_ns:{...}, counters:{...}}]}]}
[[nodiscard]] telemetry::json_value report_json(
    const std::vector<benchmark_result>& results, const environment& env);

struct gate_options {
  /// A counter's per-iteration cost may grow by at most this factor.
  double counter_ratio = 1.30;
  /// Time regresses only when current ci_lo > baseline median * this.
  double time_ratio = 4.0;
  /// Disable to gate purely on counters (fully deterministic mode).
  bool gate_time = true;
};

struct regression {
  std::string benchmark;
  std::string what;    ///< "coverage" | "counter" | "time" | "fit" | "schema"
  std::string detail;
};

/// Compares a current report document against a baseline document (both
/// as parsed JSON, so the baseline can come straight off disk).  Every
/// benchmark present in the baseline must be present in the current
/// report (a vanished benchmark is a coverage regression, not a pass),
/// and its fit must be consistent (violated and inconclusive are both
/// "fit" regressions).  Both documents must carry the kSchema tag, and a
/// malformed field (a required one absent, or any of the wrong kind) is a
/// "schema" regression, never read as 0.
[[nodiscard]] std::vector<regression> compare_reports(
    const telemetry::json_value& current, const telemetry::json_value& baseline,
    const gate_options& opts = {});

}  // namespace cgp::perf
