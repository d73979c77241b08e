// Empirical complexity fitting: does a measured n-sweep grow like the
// algorithm's declared core::big_o bound?  This is the library's one
// performance-concept check (paper §2): a least-squares fit of
// log(y / bound(n)) against log(n), whose slope is the growth the bound
// failed to explain.  The result is a three-way verdict (consistent /
// violated / inconclusive), the raw fitted log-log slope of y itself
// alongside the excess, and an R² so a report reader can tell a clean fit
// from a shrug.  Operation counts are deterministic and earn a tight
// tolerance; wall-clock sweeps are noisier and get extra slack.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/complexity.hpp"

namespace cgp::perf {

enum class verdict {
  consistent,    ///< observed growth within tolerance of the bound
  violated,      ///< observed growth exceeds the bound beyond tolerance
  inconclusive,  ///< too few points or too narrow an n-span to fit
};

[[nodiscard]] std::string to_string(verdict v);

struct fit_result {
  verdict v = verdict::inconclusive;
  /// Raw log-log slope of y against n — "the data grows like n^exponent".
  double exponent = 0.0;
  /// Slope of log(y / bound(n)) vs log(n): growth the bound missed.
  double excess = 0.0;
  /// Coefficient of determination of the raw log-log fit.
  double r2 = 0.0;
  std::string declared;  ///< bound.to_string()
  std::string detail;    ///< human-readable one-liner
};

/// Excess-exponent tolerance for deterministic operation counts.  0.35 is
/// far above measurement noise for doubling-n sweeps (conforming
/// algorithms fit within +-0.15) and far below the +1 excess of the
/// classic O(n^2)-passed-off-as-O(n log n) failure.
inline constexpr double kCounterExcessTolerance = 0.35;
/// Excess-exponent tolerance for wall-time fits: timing data earns slack.
inline constexpr double kTimeExcessTolerance = 0.5;

/// Fits `points` (n, y) against `bound` and renders the verdict.
/// Inconclusive when fewer than 3 points or max(n) < 4·min(n): an
/// unverifiable claim is never reported as consistent.  Non-positive
/// coordinates are clamped to a tiny epsilon.
[[nodiscard]] fit_result fit_against(
    const std::vector<std::pair<double, double>>& points,
    const core::big_o& bound, double tolerance = kTimeExcessTolerance,
    const std::string& var = "n");

}  // namespace cgp::perf
