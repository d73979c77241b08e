// Section 4 reproduction: the data-parallel generic library.  Shape to
// reproduce: near-linear speedup of Monoid-constrained reduce/scan/sort
// with thread count on sufficiently large inputs, with the concepts
// guaranteeing the reassociation is meaning-preserving.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <random>

#include "parallel/algorithms.hpp"
#include "parallel/task_group.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cgp::parallel;

std::vector<double> workload(std::size_t n) {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

void bm_serial_reduce(benchmark::State& state) {
  const auto v = workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double acc = 0.0;
    for (double x : v) acc += x;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_serial_reduce)->Arg(1 << 22);

void bm_parallel_reduce_threads(benchmark::State& state) {
  const auto v = workload(1 << 22);
  work_stealing_pool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        parallel_reduce<std::plus<>>(v.begin(), v.end(), {}, pool));
  state.SetItemsProcessed(state.iterations() * (1 << 22));
}
BENCHMARK(bm_parallel_reduce_threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Nested, irregular fork-join — the workload shape stealing exists for.
// Each root task forks a geometric tree of subtasks with skewed leaf
// costs; stealing keeps forks worker-local and rebalances the skew.
void nested_irregular(work_stealing_pool& pool, std::size_t roots) {
  task_group<work_stealing_pool> group(pool);
  for (std::size_t r = 0; r < roots; ++r)
    group.run([&pool, r] {
      task_group<work_stealing_pool> inner(pool);
      const std::size_t kids = 2 + r % 6;  // skewed fan-out
      for (std::size_t k = 0; k < kids; ++k)
        inner.run([r, k] {
          volatile double acc = 0.0;
          const std::size_t spins = 200 + 997 * ((r * 7 + k) % 13);
          for (std::size_t i = 0; i < spins; ++i) acc = acc + 1.0 / (i + 1.0);
        });
      inner.wait();
    });
  group.wait();
}

void bm_nested_work_stealing(benchmark::State& state) {
  work_stealing_pool pool(4);
  for (auto _ : state) nested_irregular(pool, 64);
}
BENCHMARK(bm_nested_work_stealing);

void bm_parallel_scan_threads(benchmark::State& state) {
  const auto v = workload(1 << 22);
  std::vector<double> out(v.size());
  work_stealing_pool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    parallel_inclusive_scan<std::plus<>>(v.begin(), v.end(), out.begin(), {},
                                         pool);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 22));
}
BENCHMARK(bm_parallel_scan_threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void bm_serial_sort(benchmark::State& state) {
  const auto base = workload(1 << 21);
  for (auto _ : state) {
    auto v = base;
    cgp::sequences::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(bm_serial_sort);

void bm_parallel_sort_threads(benchmark::State& state) {
  const auto base = workload(1 << 21);
  work_stealing_pool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto v = base;
    parallel_sort(v.begin(), v.end(), std::less<>{}, pool);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(bm_parallel_sort_threads)->Arg(2)->Arg(4)->Arg(8);

void report() {
  std::printf("================================================================\n");
  std::printf("Section 4: data-parallel generic library speedups\n");
  std::printf("================================================================\n");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware concurrency: %u\n\n", hw);

  const auto v = workload(1 << 23);
  const auto time_of = [&](auto&& fn) {
    const std::uint64_t t0 = cgp::telemetry::steady_now_ns();
    fn();
    return static_cast<double>(cgp::telemetry::steady_now_ns() - t0) * 1e-9;
  };
  double serial = 0.0;
  const double t_serial = time_of([&] {
    for (double x : v) serial += x;
  });
  std::printf("reduce over %d doubles: serial %.3fs (sum %.1f)\n", 1 << 23,
              t_serial, serial);
  std::printf("%-10s %-10s %-8s\n", "threads", "time", "speedup");
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    work_stealing_pool pool(t);
    double r = 0.0;
    const double tt = time_of([&] {
      r = parallel_reduce<std::plus<>>(v.begin(), v.end(), {}, pool);
    });
    std::printf("%-10u %-10.3f %-8.2f %s\n", t, tt, t_serial / tt,
                std::abs(r - serial) < 1e-6 * serial ? "" : "(!! mismatch)");
  }
  std::printf("\nthe Monoid constraint is what makes the chunked "
              "reassociation legal; a\nnon-associative operation is a "
              "compile error, not a wrong answer.\n\nbenchmarks:\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
