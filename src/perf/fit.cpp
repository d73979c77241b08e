#include "perf/fit.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cgp::perf {

namespace {

constexpr double kEps = 1e-12;

struct linfit {
  double slope = 0.0;
  double r2 = 0.0;
};

linfit fit_xy(const std::vector<std::pair<double, double>>& xy) {
  linfit f;
  const double m = static_cast<double>(xy.size());
  if (xy.size() < 2) return f;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
  }
  const double denom = m * sxx - sx * sx;
  if (denom == 0.0) return f;
  f.slope = (m * sxy - sx * sy) / denom;
  const double var_y = m * syy - sy * sy;
  if (var_y <= 0.0) {
    // A perfectly flat response is a perfect fit of a zero-slope line.
    f.r2 = 1.0;
  } else {
    const double cov = m * sxy - sx * sy;
    f.r2 = (cov * cov) / (denom * var_y);
  }
  return f;
}

}  // namespace

std::string to_string(verdict v) {
  switch (v) {
    case verdict::consistent:
      return "consistent";
    case verdict::violated:
      return "violated";
    case verdict::inconclusive:
      return "inconclusive";
  }
  return "unknown";
}

fit_result fit_against(const std::vector<std::pair<double, double>>& points,
                       const core::big_o& bound, double tolerance,
                       const std::string& var) {
  fit_result r;
  r.declared = bound.to_string();

  if (points.size() < 3) {
    r.v = verdict::inconclusive;
    r.detail = "inconclusive: need at least 3 sweep points to fit";
    return r;
  }
  const auto [min_it, max_it] = std::minmax_element(
      points.begin(), points.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (min_it->first <= 0.0 || max_it->first < 4.0 * min_it->first) {
    r.v = verdict::inconclusive;
    r.detail = "inconclusive: sweep must span at least a 4x range of positive n";
    return r;
  }

  std::vector<std::pair<double, double>> raw_logs;
  std::vector<std::pair<double, double>> excess_logs;
  raw_logs.reserve(points.size());
  excess_logs.reserve(points.size());
  for (const auto& [n, y] : points) {
    const double x = std::log(std::max(n, kEps));
    const double ly = std::log(std::max(y, kEps));
    raw_logs.emplace_back(x, ly);
    const double predicted = std::max(bound.eval({{var, n}}), kEps);
    excess_logs.emplace_back(x, std::log(std::max(y, kEps) / predicted));
  }
  const linfit raw = fit_xy(raw_logs);
  const linfit excess = fit_xy(excess_logs);
  r.exponent = raw.slope;
  r.excess = excess.slope;
  r.r2 = raw.r2;
  r.v = excess.slope <= tolerance ? verdict::consistent : verdict::violated;

  std::ostringstream os;
  if (r.v == verdict::consistent) {
    os << "grows like " << var << "^" << r.exponent << ", within " << r.declared
       << " (excess " << r.excess << " <= " << tolerance << ")";
  } else {
    os << "grows like " << var << "^" << r.exponent << ", outgrowing "
       << r.declared << " (excess " << r.excess << " > " << tolerance << ")";
  }
  r.detail = os.str();
  return r;
}

}  // namespace cgp::perf
