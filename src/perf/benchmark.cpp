#include "perf/benchmark.hpp"

#include "telemetry/telemetry.hpp"

namespace cgp::perf {

void bench_registry::add(benchmark_def def) { defs_.push_back(std::move(def)); }

const benchmark_def* bench_registry::find(const std::string& name) const {
  for (const benchmark_def& d : defs_)
    if (d.name == name) return &d;
  return nullptr;
}

benchmark_result run_benchmark(const benchmark_def& def,
                               const timing_options& opts,
                               std::uint64_t seed) {
  benchmark_result r;
  r.name = def.name;
  r.subsystem = def.subsystem;
  r.declared = def.declared.to_string();
  r.counter_prefix = def.counter_prefix;

  std::vector<std::pair<double, double>> time_points;
  std::vector<std::pair<double, double>> ops_points;
  bool ops_usable = !def.counter_prefix.empty();

  std::uint64_t point_seed = seed;
  for (const std::size_t n : def.sizes) {
    sweep_point pt;
    pt.n = n;

    auto workload = def.setup(n);
    telemetry::counter_snapshot snap;
    const timing_result timing = measure(workload, opts);

    pt.iterations = timing.iterations;
    pt.time_ns = summarize(timing.ns_per_iteration, point_seed++);
    const double invocations =
        static_cast<double>(std::max<std::uint64_t>(1, timing.invocations));
    for (const auto& [name, delta] : snap.delta())
      pt.counters.emplace_back(name, static_cast<double>(delta) / invocations);
    if (!def.counter_prefix.empty())
      pt.prefix_ops = static_cast<double>(snap.delta_sum(def.counter_prefix)) /
                      invocations;

    time_points.emplace_back(static_cast<double>(n), pt.time_ns.median);
    if (pt.prefix_ops > 0.0)
      ops_points.emplace_back(static_cast<double>(n), pt.prefix_ops);
    else
      ops_usable = false;

    r.sweep.push_back(std::move(pt));
  }

  // Prefer the deterministic signal: fit ops/iteration when every sweep
  // point produced matching counters, wall time otherwise.  The tolerance
  // follows from the signal.
  if (ops_usable && !ops_points.empty()) {
    r.fit = fit_against(ops_points, def.declared, kCounterExcessTolerance);
    r.fitted_on = "counters";
  } else {
    r.fit = fit_against(time_points, def.declared, kTimeExcessTolerance);
    r.fitted_on = "time_ns";
  }
  return r;
}

std::vector<benchmark_result> run_all(const bench_registry& reg,
                                      const timing_options& opts,
                                      std::uint64_t seed) {
  std::vector<benchmark_result> out;
  out.reserve(reg.all().size());
  // Offset each benchmark's seed block so sweep-point seeds never overlap.
  std::uint64_t base = seed;
  for (const benchmark_def& def : reg.all()) {
    out.push_back(run_benchmark(def, opts, base));
    base += 1024;
  }
  return out;
}

}  // namespace cgp::perf
