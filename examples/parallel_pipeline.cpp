// Data-parallel pipeline (Section 4): histogram + prefix statistics over a
// synthetic measurement stream using the Monoid-constrained data-parallel
// primitives.  Both concept layers earn their keep: a non-associative
// operation will not compile into parallel_reduce (semantic concept), and
// the same algorithms run unchanged over the work-stealing pool or the
// inline executor archetype (Executor concept) — the final stage swaps
// executors without touching the pipeline.
//
// Build: cmake --build build && ./build/examples/parallel_pipeline
#include <chrono>
#include <cstdio>
#include <random>

#include "parallel/algorithms.hpp"
#include "parallel/work_stealing_pool.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace cgp::parallel;
  work_stealing_pool pool;
  std::printf("work-stealing pool: %u workers\n\n", pool.worker_count());

  // Synthetic sensor readings.
  const std::size_t n = 8'000'000;
  std::vector<double> readings(n);
  std::mt19937 rng(2026);
  std::normal_distribution<double> sensor(20.0, 4.0);
  for (double& r : readings) r = sensor(rng);

  // Stage 1: parallel_transform — calibrate.
  std::vector<double> celsius(n);
  auto t0 = std::chrono::steady_clock::now();
  parallel_transform(readings.begin(), readings.end(), celsius.begin(),
                     [](double r) { return r * 1.002 - 0.3; }, pool);
  std::printf("calibrate (parallel_transform): %.3fs\n", seconds_since(t0));

  // Stage 2: parallel_reduce under the + Monoid for the mean.
  t0 = std::chrono::steady_clock::now();
  const double total =
      parallel_reduce<std::plus<>>(celsius.begin(), celsius.end(), {}, pool);
  std::printf("mean      (parallel_reduce):    %.3fs  mean=%.3f\n",
              seconds_since(t0), total / static_cast<double>(n));

  // Stage 3: running totals via the Monoid-constrained inclusive scan.
  std::vector<double> running(n);
  t0 = std::chrono::steady_clock::now();
  parallel_inclusive_scan<std::plus<>>(celsius.begin(), celsius.end(),
                                       running.begin(), {}, pool);
  std::printf("prefix    (parallel_scan):      %.3fs  last=%.1f\n",
              seconds_since(t0), running.back());

  // Stage 4: top readings via parallel_sort.
  t0 = std::chrono::steady_clock::now();
  parallel_sort(celsius.begin(), celsius.end(), std::greater<>{}, pool);
  std::printf("sort      (parallel_sort):      %.3fs  hottest=%.2f "
              "coldest=%.2f\n",
              seconds_since(t0), celsius.front(), celsius.back());

  // Stage 5: the Executor concept at work — the SAME parallel_for on two
  // executors.  Per-band work is irregular (band size varies wildly after
  // the sort), the work-stealing pool's home turf: a worker that drew a
  // thin band steals bands from loaded peers.  The inline archetype runs
  // the identical call serially as the reference.
  const auto band_means = [&](auto& exec) {
    std::vector<double> band_mean(64);
    parallel_for(
        band_mean.size(),
        [&](std::size_t b) {
          // Irregular share: band b covers an n/2^(b%8)-ish slice.
          const std::size_t lo = b * (n / band_mean.size());
          const std::size_t hi = lo + (n / band_mean.size()) / (1 + b % 8);
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) acc += celsius[i];
          band_mean[b] = hi > lo ? acc / static_cast<double>(hi - lo) : 0.0;
        },
        exec, /*grain=*/1);
    return band_mean;
  };
  t0 = std::chrono::steady_clock::now();
  const std::vector<double> stolen = band_means(pool);
  std::printf("bands     (work_stealing_pool): %.3fs  band0=%.2f\n",
              seconds_since(t0), stolen[0]);
  executor_archetype serial;
  std::printf("bands     (executor_archetype): %s\n",
              stolen == band_means(serial) ? "identical" : "MISMATCH");

  // The semantic guardrail, in comments because it must NOT compile:
  //   parallel_reduce<std::minus<>>(celsius.begin(), celsius.end());
  // error: constraint Monoid<double, std::minus<>> not satisfied —
  // subtraction is not associative, so reassociating it across chunks
  // would silently change the answer.  The concept turns that silent wrong
  // answer into a compile-time diagnosis.
  std::printf("\n(non-associative ops are rejected at compile time by the "
              "Monoid constraint)\n");
  return 0;
}
