// Tests for the unified telemetry layer: counter exactness under
// contention, histogram bucketing, span nesting, exporter round-trips,
// and the end-to-end guarantee that all five instrumented subsystems
// report through one registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "distributed/algorithms.hpp"
#include "distributed/network.hpp"
#include "graph/instrumented.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "sequences/instrumented.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cgp;

// ---------------------------------------------------------------------------
// counters / gauges
// ---------------------------------------------------------------------------

TEST(TelemetryCounter, ConcurrentIncrementsSumExactly) {
  telemetry::registry reg;
  telemetry::counter& c = reg.get_counter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(TelemetryCounter, AddWithDeltaAndReset) {
  telemetry::counter c;
  c.add(41);
  c.add();
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryCounter, RegistryReturnsStableReferences) {
  telemetry::registry reg;
  telemetry::counter& a = reg.get_counter("test.stable");
  a.add(7);
  // Force rebalancing-ish growth: many inserts after taking the reference.
  for (int i = 0; i < 100; ++i)
    (void)reg.get_counter("test.filler." + std::to_string(i));
  telemetry::counter& b = reg.get_counter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
}

TEST(TelemetryGauge, SetAddSub) {
  telemetry::gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.sub(20);
  EXPECT_EQ(g.value(), -8);  // gauges may go negative
}

TEST(TelemetryRegistry, CounterSumByPrefix) {
  telemetry::registry reg;
  reg.get_counter("alpha.x").add(1);
  reg.get_counter("alpha.y").add(2);
  reg.get_counter("alphabet.z").add(4);  // shares a string prefix, counted
  reg.get_counter("beta.x").add(8);
  EXPECT_EQ(reg.counter_sum("alpha."), 3u);
  EXPECT_EQ(reg.counter_sum("alpha"), 7u);
  EXPECT_EQ(reg.counter_sum("gamma"), 0u);
}

// ---------------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, BucketBoundaries) {
  using H = telemetry::histogram;
  // bucket 0 is exactly {0}; bucket i >= 1 is [2^(i-1), 2^i - 1].
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(1023), 10u);
  EXPECT_EQ(H::bucket_of(1024), 11u);
  EXPECT_EQ(H::bucket_bounds(0), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(H::bucket_bounds(1), (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(H::bucket_bounds(3), (std::pair<std::uint64_t, std::uint64_t>{4, 7}));
  EXPECT_EQ(H::bucket_bounds(11),
            (std::pair<std::uint64_t, std::uint64_t>{1024, 2047}));
  // Every value lands inside its bucket's [lo, hi].
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 100ull, 4096ull,
                                ~0ull}) {
    const auto [lo, hi] = H::bucket_bounds(H::bucket_of(v));
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

TEST(TelemetryHistogram, RecordAggregates) {
  telemetry::histogram h;
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 100ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 26.5);
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket_count(7), 1u);  // [64, 127] holds 100
}

TEST(TelemetryHistogram, PercentilesInterpolateFromBuckets) {
  telemetry::histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);  // empty

  // 100 identical values: every percentile lands in that bucket.
  for (int i = 0; i < 100; ++i) h.record(8);
  const auto [lo8, hi8] = telemetry::histogram::bucket_bounds(
      telemetry::histogram::bucket_of(8));
  for (const double p : {1.0, 50.0, 99.0}) {
    EXPECT_GE(h.percentile(p), static_cast<double>(lo8));
    EXPECT_LE(h.percentile(p), static_cast<double>(hi8));
  }

  // Skewed distribution: 95 small, 5 large.  p50 stays with the small
  // mass, p99 reaches the large bucket, and the sequence is monotone.
  telemetry::histogram skew;
  for (int i = 0; i < 95; ++i) skew.record(10);
  for (int i = 0; i < 5; ++i) skew.record(10'000);
  const double p50 = skew.percentile(50.0);
  const double p95 = skew.percentile(95.0);
  const double p99 = skew.percentile(99.0);
  EXPECT_LE(p50, 15.0);
  EXPECT_GE(p99, 8192.0);  // inside [8192, 16383], the bucket of 10000
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Out-of-range requests clamp instead of extrapolating.
  EXPECT_GE(skew.percentile(100.0), p99);
  EXPECT_LE(skew.percentile(0.0), p50);
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

TEST(TelemetrySpan, NestingDepthAndCharges) {
  telemetry::registry reg;
  EXPECT_EQ(telemetry::span::depth(), 0);
  {
    telemetry::span outer("test.outer", reg);
    outer.charge(5);
    EXPECT_EQ(telemetry::span::depth(), 1);
    EXPECT_EQ(telemetry::span::current(), &outer);
    {
      telemetry::span inner("test.inner", reg);
      inner.charge(2);
      EXPECT_EQ(telemetry::span::depth(), 2);
      EXPECT_EQ(telemetry::span::current(), &inner);
      // Charges are per-span, not inherited.
      EXPECT_EQ(inner.charged(), 2u);
      EXPECT_EQ(outer.charged(), 5u);
    }
    EXPECT_EQ(telemetry::span::depth(), 1);
    EXPECT_EQ(telemetry::span::current(), &outer);
  }
  EXPECT_EQ(telemetry::span::depth(), 0);
  EXPECT_EQ(telemetry::span::current(), nullptr);
  EXPECT_EQ(reg.get_counter("test.outer.calls").value(), 1u);
  EXPECT_EQ(reg.get_counter("test.inner.calls").value(), 1u);
  EXPECT_EQ(reg.get_counter("test.outer.ops").value(), 5u);
  EXPECT_EQ(reg.get_counter("test.inner.ops").value(), 2u);
  EXPECT_EQ(reg.get_histogram("test.outer.duration_us").count(), 1u);
}

TEST(TelemetrySpan, DepthIsPerThread) {
  telemetry::registry reg;
  telemetry::span outer("test.main_thread", reg);
  int other_thread_depth = -1;
  std::thread([&] { other_thread_depth = telemetry::span::depth(); }).join();
  EXPECT_EQ(other_thread_depth, 0);
  EXPECT_EQ(telemetry::span::depth(), 1);
}

// ---------------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------------

TEST(TelemetryExport, JsonRoundTripsThroughParse) {
  telemetry::registry reg;
  reg.get_counter("round.trip.counter").add(123);
  reg.get_gauge("round.trip.gauge").set(-7);
  telemetry::histogram& h = reg.get_histogram("round.trip.hist");
  h.record(3);
  h.record(300);

  const std::string json = reg.export_json();
  const telemetry::json_value doc = telemetry::parse_json(json);

  EXPECT_EQ(doc.at("counters").at("round.trip.counter").num, 123.0);
  EXPECT_EQ(doc.at("gauges").at("round.trip.gauge").num, -7.0);
  const auto& hist = doc.at("histograms").at("round.trip.hist");
  EXPECT_EQ(hist.at("count").num, 2.0);
  EXPECT_EQ(hist.at("sum").num, 303.0);
  EXPECT_EQ(hist.at("max").num, 300.0);
  ASSERT_EQ(hist.at("buckets").arr.size(), 2u);  // sparse: only hit buckets
  EXPECT_EQ(hist.at("buckets").arr[0].at("count").num, 1.0);

  // Doubles keep every digit: no stream precision rounds them.
  telemetry::registry digits;
  telemetry::histogram& wide = digits.get_histogram("digits.hist");
  wide.record(500001);
  wide.record(500002);
  const auto reread = telemetry::parse_json(digits.export_json());
  EXPECT_EQ(reread.at("histograms").at("digits.hist").at("mean").num,
            500001.5);
}

TEST(TelemetryExport, TextIsOneLinePerMetric) {
  telemetry::registry reg;
  reg.get_counter("a.b.c").add(9);
  reg.get_gauge("a.b.depth").set(4);
  reg.get_histogram("a.b.lat").record(10);
  const std::string text = reg.export_text();
  EXPECT_NE(text.find("counter a.b.c 9\n"), std::string::npos);
  EXPECT_NE(text.find("gauge a.b.depth 4\n"), std::string::npos);
  EXPECT_NE(text.find("histogram a.b.lat count=1"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(TelemetryExport, ExportsCarryHistogramPercentiles) {
  telemetry::registry reg;
  telemetry::histogram& h = reg.get_histogram("pctl.hist");
  for (int i = 0; i < 95; ++i) h.record(10);
  for (int i = 0; i < 5; ++i) h.record(10'000);

  // Text: still one line, now with the interpolated percentile summary.
  const std::string text = reg.export_text();
  for (const char* key : {" p50=", " p95=", " p99="})
    EXPECT_NE(text.find(key), std::string::npos) << key;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);

  // JSON: the histogram object exposes the same three percentiles.
  const auto doc = telemetry::parse_json(reg.export_json());
  const auto& hist = doc.at("histograms").at("pctl.hist");
  // The JSON writer renders at stream precision; compare relatively.
  EXPECT_NEAR(hist.at("p50").num, h.percentile(50.0),
              h.percentile(50.0) * 1e-4);
  EXPECT_NEAR(hist.at("p95").num, h.percentile(95.0),
              h.percentile(95.0) * 1e-4);
  EXPECT_NEAR(hist.at("p99").num, h.percentile(99.0),
              h.percentile(99.0) * 1e-4);
  EXPECT_LE(hist.at("p50").num, hist.at("p99").num);
}

TEST(TelemetryExport, EmptyHistogramPercentilesAreExplicitNulls) {
  // Percentiles of zero samples do not exist; a 0 would read as "measured
  // and instantaneous".  Both exporters must say null, and flip to numbers
  // as soon as one sample lands.
  telemetry::registry reg;
  (void)reg.get_histogram("empty.hist");

  const std::string text = reg.export_text();
  EXPECT_NE(text.find("p50=null p95=null p99=null"), std::string::npos)
      << text;

  const auto doc = telemetry::parse_json(reg.export_json());
  const auto& hist = doc.at("histograms").at("empty.hist");
  EXPECT_EQ(hist.at("count").num, 0.0);
  for (const char* key : {"p50", "p95", "p99"})
    EXPECT_TRUE(hist.at(key).is(telemetry::json_value::kind::null)) << key;

  reg.get_histogram("empty.hist").record(7);
  const auto doc2 = telemetry::parse_json(reg.export_json());
  const auto& hist2 = doc2.at("histograms").at("empty.hist");
  for (const char* key : {"p50", "p95", "p99"})
    EXPECT_TRUE(hist2.at(key).is(telemetry::json_value::kind::number)) << key;
  EXPECT_EQ(reg.export_text().find("p50=null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// counter snapshots
// ---------------------------------------------------------------------------

TEST(TelemetryCounterSnapshot, DeltaSeesOnlyGrowth) {
  telemetry::registry reg;
  reg.get_counter("snap.a").add(10);
  reg.get_counter("snap.b").add(5);

  telemetry::counter_snapshot snap(reg);
  EXPECT_TRUE(snap.delta().empty());

  reg.get_counter("snap.a").add(7);
  reg.get_counter("snap.c").add(3);  // created after the snapshot
  const auto d = snap.delta();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, "snap.a");
  EXPECT_EQ(d[0].second, 7u);
  EXPECT_EQ(d[1].first, "snap.c");
  EXPECT_EQ(d[1].second, 3u);
}

TEST(TelemetryCounterSnapshot, DeltaSumFiltersByPrefix) {
  telemetry::registry reg;
  telemetry::counter_snapshot snap(reg);
  reg.get_counter("pre.fix.one").add(4);
  reg.get_counter("pre.fix.two").add(6);
  reg.get_counter("other.three").add(100);
  EXPECT_EQ(snap.delta_sum("pre.fix."), 10u);
  EXPECT_EQ(snap.delta_sum("other."), 100u);
  EXPECT_EQ(snap.delta_sum("missing."), 0u);
  EXPECT_EQ(snap.delta_sum(""), 110u);
}

TEST(TelemetryExport, ParserRejectsMalformedJson) {
  EXPECT_THROW((void)telemetry::parse_json("{\"a\":}"), telemetry::json_error);
  EXPECT_THROW((void)telemetry::parse_json("[1, 2"), telemetry::json_error);
  EXPECT_THROW((void)telemetry::parse_json("{} trailing"),
               telemetry::json_error);
}

// The parser recurses once per nesting level: a hostile 100k-deep
// document must end in json_error, not a stack overflow.
TEST(TelemetryExport, ParserRejectsNestingPastTheDepthLimit) {
  const std::size_t deep = 100'000;
  EXPECT_THROW((void)telemetry::parse_json(std::string(deep, '[') +
                                           std::string(deep, ']')),
               telemetry::json_error);
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)telemetry::parse_json(objects), telemetry::json_error);
  const std::size_t over = telemetry::kMaxJsonDepth + 1;
  EXPECT_THROW((void)telemetry::parse_json(std::string(over, '[') +
                                           std::string(over, ']')),
               telemetry::json_error);
}

TEST(TelemetryExport, ParserAcceptsNestingAtTheDepthLimit) {
  const std::size_t n = telemetry::kMaxJsonDepth;
  const auto doc =
      telemetry::parse_json(std::string(n, '[') + "7" + std::string(n, ']'));
  const telemetry::json_value* v = &doc;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(v->is(telemetry::json_value::kind::array));
    ASSERT_EQ(v->arr.size(), 1u);
    v = &v->arr[0];
  }
  EXPECT_EQ(v->num, 7.0);
}

TEST(TelemetryExport, ValidationReadersRejectWrongKindsAndRanges) {
  const auto doc = telemetry::parse_json(
      R"({"n":-1,"big":1e30,"s":"x","a":[],"o":{},"u":7})");
  telemetry::validation v;
  double d = 0.0;
  std::uint64_t u = 0;
  std::string str;
  EXPECT_TRUE(v.u64_field(doc, "u", "doc", u));
  EXPECT_EQ(u, 7u);
  EXPECT_TRUE(v.str_field(doc, "s", "doc", str));
  EXPECT_NE(v.arr_field(doc, "a", "doc"), nullptr);
  EXPECT_NE(v.obj_field(doc, "o", "doc"), nullptr);
  EXPECT_TRUE(v.ok);
  EXPECT_FALSE(v.num_field(doc, "s", "doc", d));     // wrong kind
  EXPECT_FALSE(v.u64_field(doc, "n", "doc", u));     // negative
  EXPECT_FALSE(v.u64_field(doc, "big", "doc", u));   // past 2^64
  EXPECT_FALSE(v.str_field(doc, "u", "doc", str));   // wrong kind
  EXPECT_EQ(v.arr_field(doc, "o", "doc"), nullptr);  // wrong kind
  EXPECT_EQ(v.obj_field(doc, "missing", "doc"), nullptr);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.errors.size(), 6u);
  EXPECT_NE(v.error_text().find("doc: missing numeric 's'"), std::string::npos);
  // Failures past the cap still clear `ok` but keep no more messages.
  for (int i = 0; i < 100; ++i) v.fail("more");
  EXPECT_EQ(v.errors.size(), telemetry::validation::kMaxErrors);
}

TEST(TelemetryExport, DumpJsonSerializesEveryKind) {
  const auto doc = telemetry::parse_json(
      "{\"s\":\"a\\\"b\\nc\",\"n\":-2.5,\"t\":true,\"f\":false,"
      "\"z\":null,\"a\":[1,[],{}]}");
  EXPECT_EQ(telemetry::dump_json(doc),
            "{\"a\":[1,[],{}],\"f\":false,\"n\":-2.5,\"s\":\"a\\\"b\\nc\","
            "\"t\":true,\"z\":null}");
  // Shortest round-tripping numbers: integral doubles stay integral.
  EXPECT_EQ(telemetry::dump_json(telemetry::parse_json("42")), "42");
  EXPECT_EQ(telemetry::dump_json(telemetry::parse_json("0.1")), "0.1");
}

TEST(TelemetryExport, JsonRoundTripIsAFixedPoint) {
  // export → bundled parser → re-export must converge: after one
  // parse∘dump pass the document is a fixed point of further passes.
  telemetry::registry reg;
  reg.get_counter("rt.counter").add(1234567);
  (void)reg.get_counter("rt.zero");  // untouched counter still exports
  reg.get_gauge("rt.gauge").set(-42);
  auto& h = reg.get_histogram("rt.hist");
  h.record(0);    // bucket 0 (the [0,0] bucket)
  h.record(1);
  h.record(300);
  h.record(~std::uint64_t{0});  // saturates bucket 64: hi = 2^64 - 1
  (void)reg.get_histogram("rt.empty");  // no samples: empty bucket array

  const std::string s1 = reg.export_json();
  const std::string s2 = telemetry::dump_json(telemetry::parse_json(s1));
  const std::string s3 = telemetry::dump_json(telemetry::parse_json(s2));
  // s1 and s2 may differ lexically — json_value stores numbers as doubles,
  // so the saturated bucket's hi = 2^64 - 1 is rounded — but the pass is
  // idempotent from then on.
  EXPECT_EQ(s2, s3);

  // The re-parsed document still carries the metric semantics.
  const auto doc = telemetry::parse_json(s2);
  EXPECT_EQ(doc.at("counters").at("rt.counter").num, 1234567.0);
  EXPECT_EQ(doc.at("counters").at("rt.zero").num, 0.0);
  EXPECT_EQ(doc.at("gauges").at("rt.gauge").num, -42.0);
  const auto& hist = doc.at("histograms").at("rt.hist");
  EXPECT_EQ(hist.at("count").num, 4.0);
  ASSERT_EQ(hist.at("buckets").arr.size(), 4u);  // 0, 1, 300, 2^64-1
  EXPECT_EQ(hist.at("buckets").arr[0].at("lo").num, 0.0);
  EXPECT_EQ(hist.at("buckets").arr[0].at("hi").num, 0.0);
  // The saturated bucket's bounds survive as the nearest double.
  EXPECT_EQ(hist.at("buckets").arr[3].at("hi").num,
            static_cast<double>(~std::uint64_t{0}));
  EXPECT_TRUE(doc.at("histograms").at("rt.empty").at("buckets").arr.empty());
  EXPECT_EQ(doc.at("histograms").at("rt.empty").at("mean").num, 0.0);
}

TEST(TelemetryExport, GlobalRegistryExportRoundTripsThroughDump) {
  // The live global registry (whatever this test binary accumulated so
  // far) must round-trip too — not just hand-built registries.
  const std::string s1 = telemetry::registry::global().export_json();
  const std::string s2 = telemetry::dump_json(telemetry::parse_json(s1));
  EXPECT_EQ(s2, telemetry::dump_json(telemetry::parse_json(s2)));
}

// ---------------------------------------------------------------------------
// end-to-end: all five instrumented subsystems report into one registry
// ---------------------------------------------------------------------------

std::vector<int> random_ints(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 1 << 30);
  std::vector<int> v(n);
  for (int& x : v) x = dist(rng);
  return v;
}

TEST(TelemetryIntegration, AllFiveSubsystemsExportNonZeroMetrics) {
  auto& reg = telemetry::registry::global();

  // (1) parallel: run work through a fresh pool.
  {
    parallel::work_stealing_pool pool(4);
    std::atomic<int> hits{0};
    pool.run_chunks(16, [&hits](std::size_t) { ++hits; });
    ASSERT_EQ(hits.load(), 16);
  }

  // (2) distributed: a ring election.
  {
    distributed::sim_transport net({.nodes = 8});
    net.spawn(distributed::lcr_leader_election());
    const auto stats = net.run();
    ASSERT_GT(stats.messages_total, 0u);
    ASSERT_GT(stats.messages_for("uid"), 0u);
    // Per-tag counts partition the total.
    std::size_t by_tag = 0;
    for (const std::string& tag : stats.tags())
      by_tag += stats.messages_for(tag);
    ASSERT_EQ(by_tag, stats.messages_total);
  }

  // (3) rewrite: simplify an expression that fires concept rules.
  {
    rewrite::simplifier simp;  // uses the pre-populated global registry
    simp.add_default_concept_rules();
    const rewrite::expr e =
        rewrite::parse_expr("(x + 0) * 1", {{"x", "int"}});
    (void)simp.simplify(e);
  }

  // (4) stllint: lint a snippet with a diagnostic.
  {
    const auto result = stllint::lint_source(R"(
void f() {
  vector<int>::iterator it;
  use(*it);
}
)");
    ASSERT_FALSE(result.diags.empty());
  }

  // (5) sequences + graph: instrumented algorithm runs.
  {
    auto v = random_ints(512, 7);
    (void)sequences::instrumented::sort(v.begin(), v.end());
    graph::adjacency_list<double> g(16);
    for (std::size_t i = 0; i + 1 < 16; ++i) g.add_edge(i, i + 1, 1.0);
    (void)graph::instrumented::bfs_distances(g, 0);
  }

  // Every subsystem must have non-zero counters under its prefix, and the
  // JSON export must parse and contain them.
  for (const char* prefix :
       {"parallel.", "distributed.", "rewrite.", "stllint.", "sequences.",
        "graph."}) {
    EXPECT_GT(reg.counter_sum(prefix), 0u)
        << "no metrics reported under prefix " << prefix;
  }
  const auto doc = telemetry::parse_json(reg.export_json());
  EXPECT_GT(doc.at("counters")
                .at("parallel.work_stealing.tasks_completed")
                .num,
            0.0);
  EXPECT_GT(doc.at("counters").at("distributed.network.messages.uid").num,
            0.0);
  EXPECT_GT(doc.at("counters").at("stllint.analyzer.diagnostics.warning").num,
            0.0);
  EXPECT_GT(doc.at("counters").at("sequences.sort.comparisons").num, 0.0);
  EXPECT_GT(doc.at("counters").at("graph.bfs.operations").num, 0.0);
  // Queue depth returned to zero once the pool drained.
  EXPECT_EQ(doc.at("gauges").at("parallel.work_stealing.queue_depth").num, 0.0);
  // Per-task latency histogram saw every chunk.
  EXPECT_GE(doc.at("histograms").at("parallel.work_stealing.task_us").at("count").num,
            16.0);
}

TEST(TelemetryIntegration, PerTagMessageCountsMatchRegistry) {
  auto& reg = telemetry::registry::global();
  const std::uint64_t before =
      reg.get_counter("distributed.network.messages.probe").value();
  distributed::sim_transport net(
      {.nodes = 4, .topo = distributed::topology::complete});
  net.spawn([](int) {
    struct probe final : distributed::process {
      void start(distributed::context& ctx) override {
        for (const int nb : ctx.neighbors()) ctx.send(nb, "probe", {1});
      }
      void receive(distributed::context&, const distributed::message&)
          override {}
    };
    return std::make_unique<probe>();
  });
  const auto stats = net.run();
  EXPECT_EQ(stats.messages_for("probe"), 12u);  // 4 nodes x 3 neighbors
  EXPECT_EQ(stats.tags(), std::vector<std::string>{"probe"});
  EXPECT_EQ(reg.get_counter("distributed.network.messages.probe").value(),
            before + 12);
}

}  // namespace
