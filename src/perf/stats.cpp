#include "perf/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/mix64.hpp"

namespace cgp::perf {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double mad(const std::vector<double>& v, double center) {
  if (v.empty()) return 0.0;
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::abs(x - center));
  return median(std::move(dev));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = (p / 100.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

confidence_interval bootstrap_median_ci(const std::vector<double>& v,
                                        std::uint64_t seed,
                                        std::size_t resamples,
                                        double confidence) {
  if (v.empty()) return {};
  if (v.size() == 1 || resamples == 0) return {v.front(), v.front()};
  std::uint64_t state = seed;
  std::vector<double> medians;
  medians.reserve(resamples);
  std::vector<double> resample(v.size());
  for (std::size_t r = 0; r < resamples; ++r) {
    for (double& slot : resample)
      slot = v[static_cast<std::size_t>(core::splitmix64_next(state) % v.size())];
    medians.push_back(median(resample));
  }
  const double tail = (1.0 - confidence) / 2.0 * 100.0;
  confidence_interval ci;
  ci.lo = percentile(medians, tail);
  ci.hi = percentile(std::move(medians), 100.0 - tail);
  return ci;
}

summary summarize(const std::vector<double>& samples, std::uint64_t seed) {
  summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  const auto [min_it, max_it] =
      std::minmax_element(samples.begin(), samples.end());
  s.min = *min_it;
  s.max = *max_it;
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.median = median(samples);
  s.mad = mad(samples, s.median);
  s.ci = bootstrap_median_ci(samples, seed);
  return s;
}

}  // namespace cgp::perf
