// Tests for the performance observatory (src/perf): outlier-robust
// statistics, the adaptive timer, the empirical complexity fit, the
// benchmark runner's counter attribution, the BENCH_perf.json schema,
// and the baseline regression gate.
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/gtest_support.hpp"
#include "check/property.hpp"
#include "core/complexity.hpp"
#include "perf/benchmark.hpp"
#include "perf/env_info.hpp"
#include "perf/fit.hpp"
#include "perf/report.hpp"
#include "perf/stats.hpp"
#include "perf/timer.hpp"
#include "telemetry/telemetry.hpp"

CGP_REGISTER_SEED_BANNER();

namespace {

using namespace cgp;
using telemetry::json_value;

// --- stats ------------------------------------------------------------------

TEST(PerfStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(perf::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perf::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perf::median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(perf::median({}), 0.0);
}

TEST(PerfStats, MedianResistsOutliers) {
  // One wild sample moves the mean but not the median.
  EXPECT_DOUBLE_EQ(perf::median({1.0, 2.0, 3.0, 4.0, 1e9}), 3.0);
}

TEST(PerfStats, MadAboutMedian) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 100.0};
  const double med = perf::median(v);
  EXPECT_DOUBLE_EQ(med, 3.0);
  // Deviations: 2 1 0 1 97 -> median 1.
  EXPECT_DOUBLE_EQ(perf::mad(v, med), 1.0);
  EXPECT_DOUBLE_EQ(perf::mad({}, 0.0), 0.0);
}

TEST(PerfStats, PercentileInterpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(perf::percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(perf::percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(perf::percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(perf::percentile({}, 50.0), 0.0);
}

TEST(PerfStats, BootstrapCiIsDeterministicPerSeed) {
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) v.push_back(100.0 + (i % 7));
  const auto a = perf::bootstrap_median_ci(v, 42);
  const auto b = perf::bootstrap_median_ci(v, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_LE(a.lo, a.hi);
  // The interval brackets the sample median.
  const double med = perf::median(v);
  EXPECT_LE(a.lo, med);
  EXPECT_GE(a.hi, med);
}

TEST(PerfStats, BootstrapDegenerateInputs) {
  const auto single = perf::bootstrap_median_ci({5.0}, 1);
  EXPECT_DOUBLE_EQ(single.lo, 5.0);
  EXPECT_DOUBLE_EQ(single.hi, 5.0);
  // A constant sample has a zero-width interval regardless of seed.
  const auto flat = perf::bootstrap_median_ci({3.0, 3.0, 3.0, 3.0}, 99);
  EXPECT_DOUBLE_EQ(flat.lo, 3.0);
  EXPECT_DOUBLE_EQ(flat.hi, 3.0);
  const auto empty = perf::bootstrap_median_ci({}, 1);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 0.0);
}

TEST(PerfStats, SummarizeFillsEveryField) {
  const std::vector<double> v = {4.0, 2.0, 6.0, 8.0, 10.0};
  const auto s = perf::summarize(v, 7);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 6.0);
  EXPECT_DOUBLE_EQ(s.median, 6.0);
  EXPECT_DOUBLE_EQ(s.mad, 2.0);
  EXPECT_LE(s.ci.lo, s.ci.hi);
}

// --- timer ------------------------------------------------------------------

TEST(PerfTimer, ProducesRequestedRepeats) {
  perf::timing_options opts;
  opts.min_sample_ns = 1000;
  opts.repeats = 5;
  volatile std::uint64_t sink = 0;
  const auto r = perf::measure([&] { sink = sink + 1; }, opts);
  EXPECT_EQ(r.ns_per_iteration.size(), 5u);
  EXPECT_GE(r.iterations, 1u);
  for (const double ns : r.ns_per_iteration) EXPECT_GE(ns, 0.0);
}

TEST(PerfTimer, InvocationsCountEveryCall) {
  perf::timing_options opts;
  opts.min_sample_ns = 10'000;
  opts.repeats = 3;
  opts.warmup = 2;
  std::uint64_t calls = 0;
  const auto r = perf::measure([&] { ++calls; }, opts);
  // The timer's own ledger must agree exactly with the workload's, since
  // counter deltas are divided by it.
  EXPECT_EQ(r.invocations, calls);
  EXPECT_GE(r.invocations, opts.warmup + opts.repeats * r.iterations);
}

TEST(PerfTimer, CalibrationGrowsBatchForFastWork) {
  perf::timing_options opts;
  opts.min_sample_ns = 500'000;
  opts.repeats = 3;
  volatile std::uint64_t sink = 0;
  const auto r = perf::measure([&] { sink = sink + 1; }, opts);
  // A ~1ns workload needs far more than one iteration per 0.5ms batch.
  EXPECT_GT(r.iterations, 100u);
}

TEST(PerfTimer, RespectsMaxIterationsCap) {
  perf::timing_options opts;
  opts.min_sample_ns = std::uint64_t{1} << 62;  // unreachable target
  opts.repeats = 1;
  opts.max_iterations = 64;
  volatile std::uint64_t sink = 0;
  const auto r = perf::measure([&] { sink = sink + 1; }, opts);
  EXPECT_LE(r.iterations, 64u);
}

// --- env_info ---------------------------------------------------------------

TEST(PerfEnvInfo, ReportsToolchainAndThreads) {
  const auto env = perf::env_info("2026-01-01T00:00:00Z");
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_NE(env.compiler, "unknown");
  EXPECT_FALSE(env.build_type.empty());
  EXPECT_GE(env.hardware_threads, 1u);
  EXPECT_EQ(env.timestamp, "2026-01-01T00:00:00Z");
}

TEST(PerfEnvInfo, JsonCarriesEveryField) {
  const auto env = perf::env_info("t0");
  const auto j = env.to_json();
  ASSERT_TRUE(j.is(json_value::kind::object));
  EXPECT_EQ(j.at("compiler").str, env.compiler);
  EXPECT_EQ(j.at("build_type").str, env.build_type);
  EXPECT_EQ(j.at("os").str, env.os);
  EXPECT_EQ(j.at("timestamp").str, "t0");
  EXPECT_DOUBLE_EQ(j.at("hardware_threads").num,
                   static_cast<double>(env.hardware_threads));
  // dump∘parse round trip through the bundled JSON layer.
  const auto back = telemetry::parse_json(telemetry::dump_json(j));
  EXPECT_EQ(telemetry::dump_json(back), telemetry::dump_json(j));
}

TEST(PerfEnvInfo, TimestampHelperLooksIso) {
  const std::string ts = perf::utc_timestamp();
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
}

// --- fit --------------------------------------------------------------------

std::vector<std::pair<double, double>> sweep(
    std::initializer_list<double> ns, double (*fn)(double)) {
  std::vector<std::pair<double, double>> out;
  for (const double n : ns) out.emplace_back(n, fn(n));
  return out;
}

TEST(PerfFit, QuadraticDataViolatesLinearBound) {
  const auto pts =
      sweep({64, 128, 256, 512, 1024}, +[](double n) { return n * n; });
  const auto r = perf::fit_against(pts, core::big_o::n());
  EXPECT_EQ(r.v, perf::verdict::violated);
  EXPECT_NEAR(r.exponent, 2.0, 0.05);
  EXPECT_NEAR(r.excess, 1.0, 0.05);
  EXPECT_GT(r.r2, 0.99);
}

TEST(PerfFit, NLogNDataConsistentWithNLogNBound) {
  const auto pts = sweep({64, 128, 256, 512, 1024},
                         +[](double n) { return n * std::log2(n); });
  const auto r = perf::fit_against(pts, core::big_o::power("n", 1, 1));
  EXPECT_EQ(r.v, perf::verdict::consistent);
  EXPECT_NEAR(r.excess, 0.0, 0.05);
}

TEST(PerfFit, ConstantSeriesConsistentWithConstantBound) {
  const auto pts =
      sweep({64, 128, 256, 512, 1024}, +[](double) { return 5.0; });
  const auto r = perf::fit_against(pts, core::big_o::one());
  EXPECT_EQ(r.v, perf::verdict::consistent);
  EXPECT_NEAR(r.exponent, 0.0, 1e-9);
  // A flat series is a perfect zero-slope fit, not a degenerate one.
  EXPECT_DOUBLE_EQ(r.r2, 1.0);
}

TEST(PerfFit, TooFewPointsIsInconclusive) {
  const auto r = perf::fit_against({{64, 1.0}, {4096, 64.0}}, core::big_o::n());
  EXPECT_EQ(r.v, perf::verdict::inconclusive);
  EXPECT_NE(r.detail.find("inconclusive"), std::string::npos);
}

TEST(PerfFit, NarrowSpanIsInconclusive) {
  // Three points but max(n) < 4·min(n): refuses to fit instead of passing.
  const auto pts =
      sweep({100, 150, 200}, +[](double n) { return n * n * n; });
  const auto r = perf::fit_against(pts, core::big_o::one());
  EXPECT_EQ(r.v, perf::verdict::inconclusive);
}

TEST(PerfFit, SeededNoiseNearBoundaryIsStable) {
  // Multiplicative noise around a clean n^1.2 series vs an O(n) bound with
  // tolerance 0.5: the underlying excess 0.2 must stay consistent for any
  // bounded noise realization; use the session seed to draw it.
  check::random_source rs(check::default_seed());
  auto next_noise = [&rs]() {
    return 0.9 + 0.2 * (static_cast<double>(rs.bits() % 1000) / 1000.0);
  };
  std::vector<std::pair<double, double>> pts;
  for (const double n : {64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0})
    pts.emplace_back(n, std::pow(n, 1.2) * next_noise());
  const auto r = perf::fit_against(pts, core::big_o::n(), 0.5);
  EXPECT_EQ(r.v, perf::verdict::consistent);
  EXPECT_NEAR(r.excess, 0.2, 0.15);
}

TEST(PerfFit, LoglogSlopeRecoversExponent) {
  const auto pts =
      sweep({16, 64, 256, 1024}, +[](double n) { return 3.0 * n * n * n; });
  EXPECT_NEAR(perf::loglog_slope(pts), 3.0, 1e-6);
}

// --- benchmark runner -------------------------------------------------------

TEST(PerfBenchmark, AttributesCountersPerIteration) {
  auto& reg = telemetry::registry::global();
  auto& ops = reg.get_counter("perftest.toy.ops");
  const std::uint64_t before = ops.value();

  perf::benchmark_def def;
  def.name = "perftest.toy";
  def.subsystem = "perftest";
  def.declared = core::big_o::n();
  def.sizes = {8, 32, 128, 512};
  def.counter_prefix = "perftest.toy.";
  def.setup = [&ops](std::size_t n) -> std::function<void()> {
    return [&ops, n] { ops.add(n); };
  };

  perf::timing_options opts;
  opts.min_sample_ns = 20'000;
  opts.repeats = 3;
  const auto r = perf::run_benchmark(def, opts, 42);

  ASSERT_EQ(r.sweep.size(), 4u);
  for (std::size_t i = 0; i < r.sweep.size(); ++i) {
    const auto& pt = r.sweep[i];
    EXPECT_EQ(pt.n, def.sizes[i]);
    // The workload adds exactly n per invocation, and the runner divides
    // the delta by the timer's invocation ledger — so the attributed
    // ops/iteration is exactly n, independent of calibration.
    EXPECT_DOUBLE_EQ(pt.prefix_ops, static_cast<double>(pt.n));
    EXPECT_EQ(pt.time_ns.count, opts.repeats);
  }
  EXPECT_EQ(r.fitted_on, "counters");
  EXPECT_EQ(r.fit.v, perf::verdict::consistent);
  EXPECT_NEAR(r.fit.exponent, 1.0, 1e-6);
  EXPECT_GT(ops.value(), before);
}

TEST(PerfBenchmark, FallsBackToTimeWithoutCounters) {
  perf::benchmark_def def;
  def.name = "perftest.uninstrumented";
  def.subsystem = "perftest";
  def.declared = core::big_o::n();
  def.sizes = {64, 256, 1024};
  def.setup = [](std::size_t n) -> std::function<void()> {
    return [n] {
      volatile double acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc = acc + 1.0;
    };
  };
  perf::timing_options opts;
  opts.min_sample_ns = 50'000;
  opts.repeats = 3;
  const auto r = perf::run_benchmark(def, opts, 42);
  EXPECT_EQ(r.fitted_on, "time_ns");
  ASSERT_EQ(r.sweep.size(), 3u);
}

TEST(PerfBenchmark, RegistryFindsByName) {
  perf::bench_registry reg;
  perf::benchmark_def def;
  def.name = "a.b";
  reg.add(std::move(def));
  EXPECT_NE(reg.find("a.b"), nullptr);
  EXPECT_EQ(reg.find("a.c"), nullptr);
  EXPECT_EQ(reg.all().size(), 1u);
}

// --- report schema + regression gate ----------------------------------------

perf::benchmark_result toy_result(const std::string& name, double ops_scale,
                                  double time_scale) {
  perf::benchmark_result r;
  r.name = name;
  r.subsystem = "perftest";
  r.declared = "O(n)";
  r.counter_prefix = name + ".";
  r.fitted_on = "counters";
  r.fit.v = perf::verdict::consistent;
  r.fit.exponent = 1.0;
  r.fit.declared = "O(n)";
  for (const std::size_t n : {8u, 32u, 128u}) {
    perf::sweep_point pt;
    pt.n = n;
    pt.iterations = 100;
    const double t = time_scale * static_cast<double>(n);
    pt.time_ns = perf::summarize({t, t * 1.01, t * 0.99}, 1);
    pt.counters.emplace_back(name + ".ops",
                             ops_scale * static_cast<double>(n));
    pt.prefix_ops = ops_scale * static_cast<double>(n);
    r.sweep.push_back(std::move(pt));
  }
  return r;
}

TEST(PerfReport, JsonMatchesSchema) {
  const auto env = perf::env_info("t0");
  const auto doc = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);

  EXPECT_EQ(doc.at("schema").str, perf::kSchema);
  ASSERT_TRUE(doc.at("environment").is(json_value::kind::object));
  const auto& benches = doc.at("benchmarks");
  ASSERT_TRUE(benches.is(json_value::kind::array));
  ASSERT_EQ(benches.arr.size(), 1u);
  const auto& b = benches.arr[0];
  EXPECT_EQ(b.at("name").str, "perftest.a");
  EXPECT_EQ(b.at("declared").str, "O(n)");
  EXPECT_EQ(b.at("fit").at("verdict").str, "consistent");
  const auto& sweep0 = b.at("sweep").arr.at(0);
  EXPECT_DOUBLE_EQ(sweep0.at("n").num, 8.0);
  for (const char* key : {"count", "min", "max", "mean", "median", "mad",
                          "ci_lo", "ci_hi"})
    EXPECT_TRUE(sweep0.at("time_ns").has(key)) << key;
  EXPECT_TRUE(sweep0.at("counters").has("perftest.a.ops"));

  // The document survives the bundled JSON round trip byte-for-byte.
  const std::string rendered = telemetry::dump_json(doc);
  EXPECT_EQ(telemetry::dump_json(telemetry::parse_json(rendered)), rendered);
}

TEST(PerfReport, IdenticalReportsHaveNoRegressions) {
  const auto env = perf::env_info("t0");
  const auto doc = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  EXPECT_TRUE(perf::compare_reports(doc, doc).empty());
}

TEST(PerfReport, InflatedCountersTripTheGate) {
  const auto env = perf::env_info("t0");
  const auto base = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  const auto slow = perf::report_json({toy_result("perftest.a", 6.0, 10.0)}, env);
  const auto regs = perf::compare_reports(slow, base);
  ASSERT_FALSE(regs.empty());
  EXPECT_EQ(regs[0].what, "counter");
  EXPECT_EQ(regs[0].benchmark, "perftest.a");
  // Within tolerance (1.30 default): 1.2x growth passes.
  const auto mild = perf::report_json({toy_result("perftest.a", 1.2, 10.0)}, env);
  EXPECT_TRUE(perf::compare_reports(mild, base).empty());
}

TEST(PerfReport, MissingBenchmarkIsACoverageRegression) {
  const auto env = perf::env_info("t0");
  const auto base = perf::report_json(
      {toy_result("perftest.a", 1.0, 10.0), toy_result("perftest.b", 1.0, 10.0)},
      env);
  const auto cur = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  const auto regs = perf::compare_reports(cur, base);
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].what, "coverage");
  EXPECT_EQ(regs[0].benchmark, "perftest.b");
}

TEST(PerfReport, TimeGateUsesCiAgainstBaselineMedian) {
  const auto env = perf::env_info("t0");
  const auto base = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  // 6x slower wall time, same counters: only the time gate can see it.
  const auto slow = perf::report_json({toy_result("perftest.a", 1.0, 60.0)}, env);
  perf::gate_options gate;
  gate.time_ratio = 4.0;
  auto regs = perf::compare_reports(slow, base, gate);
  ASSERT_FALSE(regs.empty());
  EXPECT_EQ(regs[0].what, "time");
  // Counters-only mode ignores wall time entirely.
  gate.gate_time = false;
  EXPECT_TRUE(perf::compare_reports(slow, base, gate).empty());
  // 2x slower stays inside the 4x noise allowance.
  const auto mild = perf::report_json({toy_result("perftest.a", 1.0, 20.0)}, env);
  gate.gate_time = true;
  EXPECT_TRUE(perf::compare_reports(mild, base, gate).empty());
}

TEST(PerfReport, MalformedBaselineFieldsAreSchemaRegressions) {
  // A string where a number belongs must fail the gate, not read as 0 and
  // switch the counter and time gates off.
  const auto env = perf::env_info("t0");
  const auto cur = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  auto base = cur;
  auto& pt = base.obj["benchmarks"].arr[0].obj["sweep"].arr[0];
  pt.obj["counters"].obj["perftest.a.ops"] = telemetry::parse_json("\"10\"");
  pt.obj["time_ns"].obj["median"] = telemetry::parse_json("\"10\"");
  const auto regs = perf::compare_reports(cur, base);
  ASSERT_EQ(regs.size(), 2u);
  for (const auto& r : regs) {
    EXPECT_EQ(r.what, "schema") << r.detail;
    EXPECT_EQ(r.benchmark, "perftest.a");
  }
}

TEST(PerfReport, ViolatedFitIsARegression) {
  const auto env = perf::env_info("t0");
  auto bad = toy_result("perftest.a", 1.0, 10.0);
  bad.fit.v = perf::verdict::violated;
  bad.fit.detail = "outgrew its bound";
  const auto base = perf::report_json({toy_result("perftest.a", 1.0, 10.0)}, env);
  const auto cur = perf::report_json({bad}, env);
  const auto regs = perf::compare_reports(cur, base);
  ASSERT_FALSE(regs.empty());
  EXPECT_EQ(regs[0].what, "fit");
}

}  // namespace
