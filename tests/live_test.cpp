// Tests for the live observability layer: the flight recorder's overwrite
// ring and dump validation, watchdog stall semantics (busy/idle, one
// verdict per episode, weak-registration pruning, callbacks), manual-clock
// sampler determinism (byte-identical cgp.live.v1 exports across runs),
// series content (counter deltas vs gauge levels), Prometheus exposition,
// and the shutdown races the tsan preset hammers (start/stop/start,
// sample-during-export).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/env_info.hpp"
#include "telemetry/export.hpp"
#include "telemetry/live.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/watchdog.hpp"

namespace {

using namespace cgp;
namespace live = telemetry::live;

// ---------------------------------------------------------------------------
// flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, OverwritesOldestAndCountsTotals) {
  live::flight_recorder fr(4);
  for (int i = 0; i < 6; ++i)
    fr.note(live::flight_entry::kind::marker, "e" + std::to_string(i),
            static_cast<double>(i));
  EXPECT_EQ(fr.recorded(), 6u);
  EXPECT_EQ(fr.overwritten(), 2u);
  const auto entries = fr.snapshot();
  ASSERT_EQ(entries.size(), 4u);
  // Oldest-first, and the two oldest notes were overwritten.
  EXPECT_EQ(entries.front().name, "e2");
  EXPECT_EQ(entries.back().name, "e5");
}

TEST(FlightRecorderTest, DumpRoundTripsAndValidates) {
  live::flight_recorder fr(16);
  fr.note(live::flight_entry::kind::span, "a.span", 12.0);
  fr.note(live::flight_entry::kind::counter, "a.counter", 3.0);
  fr.note(live::flight_entry::kind::watchdog, "a.worker", 99.0, "stall");
  fr.note(live::flight_entry::kind::marker, "note");
  const auto doc = telemetry::parse_json(fr.dump_json());
  const auto v = live::validate_flight_dump(doc);
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.entries, 4u);
  EXPECT_EQ(v.spans, 1u);
  EXPECT_EQ(v.counters, 1u);
  EXPECT_EQ(v.watchdog_verdicts, 1u);
  EXPECT_EQ(v.markers, 1u);
  // dump -> parse -> dump is a fixed point through the bundled JSON layer.
  const std::string dumped = telemetry::dump_json(doc);
  EXPECT_EQ(telemetry::dump_json(telemetry::parse_json(dumped)), dumped);

  // Note values keep every digit, and a NaN note still dumps a parseable
  // document whose validator names the entry that carries it.
  live::flight_recorder digits(8);
  digits.note(live::flight_entry::kind::marker, "big", 1234567.0);
  digits.note(live::flight_entry::kind::marker, "small", 0.123456789);
  digits.note(live::flight_entry::kind::marker, "nan", std::nan(""));
  const auto reread = telemetry::parse_json(digits.dump_json());
  ASSERT_EQ(reread.at("entries").arr.size(), 3u);
  EXPECT_EQ(reread.at("entries").arr[0].at("value").num, 1234567.0);
  EXPECT_EQ(reread.at("entries").arr[1].at("value").num, 0.123456789);
  const auto nan_check = live::validate_flight_dump(reread);
  EXPECT_FALSE(nan_check.ok);
  EXPECT_NE(nan_check.error_text().find("entry 2"), std::string::npos)
      << nan_check.error_text();
}

TEST(FlightRecorderTest, ValidatorRejectsIncoherentTotals) {
  live::flight_recorder fr(8);
  fr.note(live::flight_entry::kind::marker, "x");
  auto doc = telemetry::parse_json(fr.dump_json());
  doc.obj["recorded"].num = 0.0;  // totals no longer match the entry count
  const auto v = live::validate_flight_dump(doc);
  EXPECT_FALSE(v.ok);
}

TEST(FlightRecorderTest, ValidatorRejectsNonMonotoneSeq) {
  live::flight_recorder fr(8);
  fr.note(live::flight_entry::kind::marker, "a");
  fr.note(live::flight_entry::kind::marker, "b");
  auto doc = telemetry::parse_json(fr.dump_json());
  ASSERT_EQ(doc.at("entries").arr.size(), 2u);
  // Duplicate seq: two writers "tearing" the ring must be caught.
  doc.obj["entries"].arr[1].obj["seq"].num =
      doc.at("entries").arr[0].at("seq").num;
  EXPECT_FALSE(live::validate_flight_dump(doc).ok);
  // Missing seq entirely is a schema violation too.
  auto doc2 = telemetry::parse_json(fr.dump_json());
  doc2.obj["entries"].arr[0].obj.erase("seq");
  EXPECT_FALSE(live::validate_flight_dump(doc2).ok);
  // So is a field of the wrong kind: a string time is not read as 0.
  auto doc3 = telemetry::parse_json(fr.dump_json());
  doc3.obj["entries"].arr[0].obj["t_ms"] = telemetry::parse_json("\"soon\"");
  EXPECT_FALSE(live::validate_flight_dump(doc3).ok);
}

// Satellite regression (tsan-live hammers this): N writer threads keep
// appending while the main thread dumps.  Every mid-flight dump and the
// final quiescent dump must parse and validate — in particular the seq
// stamps must stay strictly increasing, proving note() never tears an
// entry across the overwrite ring under contention.
TEST(FlightRecorderTest, ConcurrentWritersDumpValidates) {
  live::flight_recorder fr(64);
  constexpr int kWriters = 4;
  constexpr int kNotesPerWriter = 500;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&fr, w] {
      for (int i = 0; i < kNotesPerWriter; ++i) {
        const auto k = i % 2 == 0 ? live::flight_entry::kind::span
                                  : live::flight_entry::kind::marker;
        fr.note(k, "w" + std::to_string(w) + ".n" + std::to_string(i),
                static_cast<double>(i));
      }
    });
  for (int i = 0; i < 25; ++i) {
    const auto doc = telemetry::parse_json(fr.dump_json());
    const auto v = live::validate_flight_dump(doc);
    EXPECT_TRUE(v.ok) << v.error_text();
  }
  for (std::thread& t : writers) t.join();
  const auto doc = telemetry::parse_json(fr.dump_json());
  const auto v = live::validate_flight_dump(doc);
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.entries, 64u);
  EXPECT_EQ(fr.recorded(),
            static_cast<std::uint64_t>(kWriters * kNotesPerWriter));
}

TEST(FlightRecorderTest, ClearEmptiesRingAndTotals) {
  live::flight_recorder fr(4);
  fr.note(live::flight_entry::kind::marker, "x");
  fr.clear();
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.snapshot().empty());
}

// ---------------------------------------------------------------------------
// watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, FlagsBusySilentParticipantOncePerEpisode) {
  live::watchdog wd;
  auto hb = wd.register_heartbeat("test.worker");
  hb->begin_work();
  hb->beat_at(100);
  // Budget is miss_threshold * period = 20ms of silence while busy.
  EXPECT_EQ(wd.check(115, 10, 2), 0u);  // within budget
  EXPECT_EQ(wd.check(125, 10, 2), 1u);  // flagged
  EXPECT_EQ(wd.check(200, 10, 2), 0u);  // same episode: no second verdict
  const auto stalls = wd.stalls();
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].participant, "test.worker");
  EXPECT_EQ(stalls[0].last_beat_ms, 100u);
  EXPECT_EQ(stalls[0].detected_at_ms, 125u);
  EXPECT_EQ(stalls[0].silent_ms, 25u);
  // Completing the unit of work ends the episode; a fresh silent busy
  // stretch earns a fresh verdict.
  hb->end_work();
  hb->begin_work();
  hb->beat_at(300);
  EXPECT_EQ(wd.check(330, 10, 2), 1u);
  EXPECT_EQ(wd.stall_count(), 2u);
}

TEST(WatchdogTest, IdleSilenceIsHealthy) {
  live::watchdog wd;
  auto hb = wd.register_heartbeat("test.idler");
  hb->beat_at(0);  // idle (never begin_work), silent forever
  EXPECT_EQ(wd.check(1000000, 10, 2), 0u);
  EXPECT_EQ(wd.stall_count(), 0u);
}

TEST(WatchdogTest, DroppedRegistrationsPrune) {
  live::watchdog wd;
  auto hb = wd.register_heartbeat("test.transient");
  EXPECT_EQ(wd.heartbeat_count(), 1u);
  hb.reset();  // owner is gone; the watchdog only held a weak_ptr
  EXPECT_EQ(wd.check(100, 10, 2), 0u);
  EXPECT_EQ(wd.heartbeat_count(), 0u);
}

TEST(WatchdogTest, CallbackFiresPerVerdict) {
  live::watchdog wd;
  std::vector<live::stall_event> seen;
  wd.on_stall([&seen](const live::stall_event& ev) { seen.push_back(ev); });
  auto hb = wd.register_heartbeat("test.cb");
  hb->begin_work();
  hb->beat_at(50);
  (void)wd.check(100, 10, 2);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].participant, "test.cb");
  EXPECT_EQ(seen[0].silent_ms, 50u);
}

// ---------------------------------------------------------------------------
// manual-clock sampler: determinism and series content
// ---------------------------------------------------------------------------

std::string manual_run_export() {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 16, .watch = false});
  auto& c = reg.get_counter("live_test.counter");
  auto& g = reg.get_gauge("live_test.gauge");
  auto& h = reg.get_histogram("live_test.hist");
  for (int t = 0; t < 5; ++t) {
    c.add(3);
    g.set(t);
    h.record(static_cast<std::uint64_t>(t) * 7 + 1);
    s.sample_at(static_cast<std::uint64_t>(t) * 10);
  }
  return s.export_json();
}

TEST(LiveSamplerTest, ManualClockExportIsByteIdenticalAcrossRuns) {
  // The CGP_CHECK_SEED replay contract for the live layer: with the clock
  // injected and the registry reset, two identical runs must serialize to
  // byte-identical cgp.live.v1 documents.
  const std::string first = manual_run_export();
  const std::string second = manual_run_export();
  EXPECT_EQ(first, second);
  const auto v = live::validate_live_export(telemetry::parse_json(first));
  EXPECT_TRUE(v.ok) << v.error_text();
}

TEST(LiveSamplerTest, SeriesCarryCounterDeltasAndGaugeLevels) {
  const auto doc = telemetry::parse_json(manual_run_export());
  const live::series_view* found = nullptr;
  std::vector<live::series_view> views;
  for (const auto& s : doc.at("series").arr) {
    live::series_view v;
    v.name = s.at("name").str;
    v.kind = s.at("kind").str;
    for (const auto& p : s.at("points").arr)
      v.points.push_back({static_cast<std::uint64_t>(p.at("t_ms").num),
                          p.at("v").num});
    views.push_back(std::move(v));
  }
  const auto find = [&](const std::string& name) -> const live::series_view* {
    for (const auto& v : views)
      if (v.name == name) return &v;
    return nullptr;
  };
  // Counter series hold per-period deltas (steady +3 per tick).
  found = find("live_test.counter");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, "counter_delta");
  ASSERT_EQ(found->points.size(), 5u);
  for (const auto& p : found->points) EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(found->points[0].t_ms, 0u);
  EXPECT_EQ(found->points[4].t_ms, 40u);
  // Gauge series hold levels (0..4).
  found = find("live_test.gauge");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, "gauge");
  ASSERT_EQ(found->points.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(found->points[i].value, static_cast<double>(i));
  // Histograms stream their totals as two delta series.
  found = find("live_test.hist.count");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, "hist_count_delta");
  for (const auto& p : found->points) EXPECT_EQ(p.value, 1.0);
  EXPECT_NE(find("live_test.hist.sum"), nullptr);
}

TEST(LiveSamplerTest, RingRetainsOnlyNewestPointsWithinCapacity) {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 4, .watch = false});
  auto& c = reg.get_counter("live_test.ring_counter");
  for (int t = 0; t < 10; ++t) {
    c.add(static_cast<std::uint64_t>(t) + 1);
    s.sample_at(static_cast<std::uint64_t>(t) * 10);
  }
  for (const auto& v : s.series()) {
    if (v.name != "live_test.ring_counter") continue;
    EXPECT_EQ(v.total_points, 10u);
    ASSERT_EQ(v.points.size(), 4u);  // capacity-bounded
    // Oldest retained point is tick 6 (delta 7 at t=60).
    EXPECT_EQ(v.points.front().t_ms, 60u);
    EXPECT_EQ(v.points.front().value, 7.0);
    EXPECT_EQ(v.points.back().t_ms, 90u);
    EXPECT_EQ(v.points.back().value, 10.0);
    return;
  }
  FAIL() << "series live_test.ring_counter not found";
}

TEST(LiveSamplerTest, PrometheusExpositionExposesCumulativeValues) {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 8, .watch = false});
  reg.get_counter("live_test.prom.requests").add(41);
  reg.get_gauge("live_test.prom.depth").set(-3);
  s.sample_at(0);
  reg.get_counter("live_test.prom.requests").add(1);
  s.sample_at(10);
  const std::string prom = s.export_prometheus();
  EXPECT_NE(
      prom.find("# TYPE cgp_live_test_prom_requests counter\n"
                "cgp_live_test_prom_requests{metric=\"live_test.prom.requests"
                "\"} 42\n"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE cgp_live_test_prom_depth gauge\n"
                      "cgp_live_test_prom_depth{metric=\"live_test.prom.depth"
                      "\"} -3\n"),
            std::string::npos)
      << prom;
}

namespace {

std::size_t count_occurrences(const std::string& hay, const std::string& ndl) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(ndl); pos != std::string::npos;
       pos = hay.find(ndl, pos + ndl.size()))
    ++n;
  return n;
}

}  // namespace

// Exposition-format conformance: label values escape backslash, double
// quote, and newline; sanitization collisions share ONE # TYPE line per
// family (untyped when the colliding members disagree on kind) while the
// {metric="..."} label keeps the underlying series distinct.
TEST(LiveSamplerTest, PrometheusExpositionEscapesLabelsAndGroupsFamilies) {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 8, .watch = false});
  reg.get_counter("live_test.prom.esc\\back\"quote\nline").add(5);
  reg.get_counter("live_test.prom.col.x").add(1);
  reg.get_counter("live_test.prom.col:x").add(2);
  reg.get_counter("live_test.prom.mix.a").add(3);
  reg.get_gauge("live_test.prom.mix:a").set(4);
  s.sample_at(0);
  const std::string prom = s.export_prometheus();
  // Escaping: the raw name's \, ", and newline arrive as \\, \", \n.
  EXPECT_NE(prom.find("{metric=\"live_test.prom.esc\\\\back\\\"quote"
                      "\\nline\"} 5"),
            std::string::npos)
      << prom;
  // No raw newline may survive inside a label value (every line must be a
  // comment, a sample, or blank — an unescaped break would split one).
  EXPECT_EQ(prom.find("quote\nline"), std::string::npos) << prom;
  // Same-kind collision: one TYPE line, both series present under labels.
  EXPECT_EQ(count_occurrences(prom, "# TYPE cgp_live_test_prom_col_x "), 1u)
      << prom;
  EXPECT_NE(prom.find("# TYPE cgp_live_test_prom_col_x counter\n"
                      "cgp_live_test_prom_col_x{metric=\"live_test.prom.col."
                      "x\"} 1\n"
                      "cgp_live_test_prom_col_x{metric=\"live_test.prom.col:"
                      "x\"} 2\n"),
            std::string::npos)
      << prom;
  // Mixed-kind collision: the family degrades to untyped.
  EXPECT_EQ(count_occurrences(prom, "# TYPE cgp_live_test_prom_mix_a "), 1u)
      << prom;
  EXPECT_NE(prom.find("# TYPE cgp_live_test_prom_mix_a untyped\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_prom_mix_a{metric=\"live_test.prom.mix."
                      "a\"} 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_prom_mix_a{metric=\"live_test.prom.mix:"
                      "a\"} 4\n"),
            std::string::npos)
      << prom;
  // Every # TYPE name appears exactly once across the whole document.
  EXPECT_EQ(count_occurrences(prom, "# TYPE cgp_live_test_prom_esc"), 1u)
      << prom;
}

// Exposition-format conformance for registered log2 histograms: one
// `# TYPE ... histogram` family per histogram with CUMULATIVE
// `_bucket{le="..."}` series (each le is the bucket's inclusive upper
// value bound, 2^i - 1), a `+Inf` bucket equal to the observation count,
// and `_sum` / `_count` samples.  Values 1, 3, 3, 100 land in buckets
// with bounds 1, 3, and 127, so the cumulative walk is 1 -> 3 -> 4.
TEST(LiveSamplerTest, PrometheusHistogramFamiliesConform) {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 8, .watch = false});
  auto& h = reg.get_histogram("live_test.promh.latency");
  h.record(1);
  h.record(3);
  h.record(3);
  h.record(100);
  s.sample_at(0);
  const std::string prom = s.export_prometheus();
  EXPECT_EQ(count_occurrences(prom,
                              "# TYPE cgp_live_test_promh_latency histogram"),
            1u)
      << prom;
  const std::string label = "{metric=\"live_test.promh.latency\"";
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_bucket" + label +
                      ",le=\"1\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_bucket" + label +
                      ",le=\"3\"} 3\n"),
            std::string::npos)
      << prom;
  // Empty buckets up to the max nonzero one still appear (a Prometheus
  // histogram's cumulative series has no holes).
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_bucket" + label +
                      ",le=\"63\"} 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_bucket" + label +
                      ",le=\"127\"} 4\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_bucket" + label +
                      ",le=\"+Inf\"} 4\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_sum" + label + "} 107\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cgp_live_test_promh_latency_count" + label + "} 4\n"),
            std::string::npos)
      << prom;
  // The sampler's ring-derived <name>.count / <name>.sum series would
  // sanitize to the exact sample names the histogram family owns; they
  // must be suppressed, or one name would carry two # TYPE declarations.
  EXPECT_EQ(prom.find("# TYPE cgp_live_test_promh_latency_count"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("# TYPE cgp_live_test_promh_latency_sum"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("{metric=\"live_test.promh.latency.count\"}"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("{metric=\"live_test.promh.latency.sum\"}"),
            std::string::npos)
      << prom;
}

// Histogram label values go through the same escaping as scalar series:
// backslash, double quote, and newline in the registry name survive only
// in escaped form, on every `_bucket` / `_sum` / `_count` line.
TEST(LiveSamplerTest, PrometheusHistogramEscapesLabels) {
  auto& reg = telemetry::registry::global();
  reg.reset();
  live::sampler s({.period_ms = 10, .capacity = 8, .watch = false});
  reg.get_histogram("live_test.promh.esc\\back\"quote\nline").record(2);
  s.sample_at(0);
  const std::string prom = s.export_prometheus();
  const std::string escaped = "live_test.promh.esc\\\\back\\\"quote\\nline";
  EXPECT_NE(prom.find("_bucket{metric=\"" + escaped + "\",le=\"3\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("_bucket{metric=\"" + escaped + "\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("_sum{metric=\"" + escaped + "\"} 2\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("_count{metric=\"" + escaped + "\"} 1\n"),
            std::string::npos)
      << prom;
  // No raw newline survives inside any label value.
  EXPECT_EQ(prom.find("quote\nline"), std::string::npos) << prom;
}

TEST(LiveSamplerTest, ValidatorRejectsUnknownKindsAndTimeTravel) {
  auto doc = telemetry::parse_json(manual_run_export());
  ASSERT_FALSE(doc.at("series").arr.empty());
  doc.obj["series"].arr[0].obj["kind"].str = "nonsense";
  EXPECT_FALSE(live::validate_live_export(doc).ok);
  auto doc2 = telemetry::parse_json(manual_run_export());
  auto doc3 = doc2;
  for (std::size_t i = 0; i < doc2.at("series").arr.size(); ++i) {
    auto& s = doc2.obj["series"].arr[i];
    if (s.at("points").arr.size() < 2) continue;
    std::swap(s.obj["points"].arr.front().obj["t_ms"].num,
              s.obj["points"].arr.back().obj["t_ms"].num);
    EXPECT_FALSE(live::validate_live_export(doc2).ok);
    // A string time on the first point is not read as 0 either.
    doc3.obj["series"].arr[i].obj["points"].arr.front().obj["t_ms"] =
        telemetry::parse_json("\"soon\"");
    EXPECT_FALSE(live::validate_live_export(doc3).ok);
    return;
  }
  FAIL() << "no multi-point series to tamper with";
}

// ---------------------------------------------------------------------------
// shutdown races (the tsan-live preset runs these under ThreadSanitizer)
// ---------------------------------------------------------------------------

TEST(LiveSamplerTest, StartStopStartSurvives) {
  live::sampler s({.period_ms = 1, .capacity = 8, .watch = false});
  EXPECT_FALSE(s.running());
  s.start();
  EXPECT_TRUE(s.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  s.stop();
  EXPECT_FALSE(s.running());
  const std::uint64_t after_first = s.samples_taken();
  EXPECT_GT(after_first, 0u);
  s.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  s.stop();
  EXPECT_GT(s.samples_taken(), after_first);
}

TEST(LiveSamplerTest, SamplingDuringExportIsSafe) {
  auto& reg = telemetry::registry::global();
  live::sampler s({.period_ms = 1, .capacity = 32, .watch = false});
  auto& c = reg.get_counter("live_test.race_counter");
  s.start();
  std::thread mutator([&c] {
    for (int i = 0; i < 2000; ++i) c.add();
  });
  for (int i = 0; i < 20; ++i) {
    const std::string json = s.export_json();
    EXPECT_NO_THROW((void)telemetry::parse_json(json));
    (void)s.export_prometheus();
  }
  mutator.join();
  s.stop();
  const auto v = live::validate_live_export(
      telemetry::parse_json(s.export_json()));
  EXPECT_TRUE(v.ok) << v.error_text();
}

// Satellite regression (tsan-live hammers this): destroying a thread pool
// while the watchdog-driving sampler is live must deregister the pool's
// worker heartbeats IMMEDIATELY (the dtor's eager prune_expired), not at
// the sampler's next tick — and the concurrent prune/check on the shared
// global watchdog must be race-free.
TEST(WatchdogTest, PoolDestructionPrunesHeartbeatsWhileSamplerRuns) {
  auto& wd = live::watchdog::global();
  const std::size_t baseline = wd.heartbeat_count();
  live::sampler s({.period_ms = 1, .capacity = 16, .watch = true});
  s.start();
  for (int round = 0; round < 8; ++round) {
    {
      parallel::work_stealing_pool pool(2);
      EXPECT_EQ(wd.heartbeat_count(), baseline + 2);
      pool.run_chunks(4, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      });
    }
    // No sampler tick needed: the dtor pruned the dead registrations.
    EXPECT_EQ(wd.heartbeat_count(), baseline);
  }
  s.stop();
}

namespace {

// A chatty process for the inproc stall test: pings every neighbor each
// round so the run never quiesces, and the FIRST node to reach the stall
// round while alive wedges its superstep (a shared flag, so churn downing
// any particular node cannot dodge the plant).
class stall_once_process final : public distributed::process {
 public:
  stall_once_process(std::atomic<bool>& stalled, std::uint64_t sleep_ms)
      : stalled_(&stalled), sleep_ms_(sleep_ms) {}

  void start(distributed::context& ctx) override { ping(ctx); }
  void receive(distributed::context&, const distributed::message&) override {}
  void on_round(distributed::context& ctx) override {
    if (ctx.round() >= kStallRound && !stalled_->exchange(true))
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    ping(ctx);
  }

 private:
  static constexpr std::size_t kStallRound = 4;
  void ping(distributed::context& ctx) {
    for (int n : ctx.neighbors()) ctx.send(n, "ping");
  }

  std::atomic<bool>* stalled_;
  std::uint64_t sleep_ms_;
};

}  // namespace

// Satellite gate (ISSUE 10): the watchdog and the live counters must keep
// working under inproc churn.  A node wedging its superstep inside a
// churning inproc run holds the round barrier open; the run's heartbeat
// goes silent while busy, and the sampler-driven watchdog must emit
// EXACTLY ONE episode verdict naming `distributed.inproc` — churn noise
// must neither mask the stall nor inflate it into repeat verdicts.
TEST(WatchdogTest, InprocChurnStallProducesOneEpisodeVerdict) {
  constexpr std::uint64_t kPeriodMs = 20;
  auto& wd = live::watchdog::global();
  wd.reset();
  std::mutex mu;
  std::vector<live::stall_event> events;
  wd.on_stall([&](const live::stall_event& ev) {
    const std::lock_guard lock(mu);
    events.push_back(ev);
  });
  auto& reg = telemetry::registry::global();
  const std::uint64_t runs_before =
      reg.get_counter("distributed.network.runs.inproc").value();
  live::sampler s({.period_ms = kPeriodMs, .capacity = 64, .watch = true,
                   .miss_threshold = 2});
  s.start();
  {
    distributed::net_options opts;
    opts.nodes = 12;
    opts.topo = distributed::topology::complete;
    opts.workers = 2;
    opts.faults.churn_crash = 0.05;
    opts.faults.churn_recover = 0.3;
    opts.faults.churn_until = 8;
    distributed::inproc_transport net(opts);
    std::atomic<bool> stalled{false};
    net.spawn([&stalled](int) {
      return std::make_unique<stall_once_process>(stalled, kPeriodMs * 12);
    });
    const auto stats = net.run(10);
    EXPECT_TRUE(stalled.load()) << "the planted stall never executed";
    EXPECT_GT(stats.messages_total, 0u);
  }
  s.stop();
  wd.on_stall(nullptr);
  // One explicit final sweep: the run bumps its counters at run END, which
  // can land between the background loop's last tick and stop().  The run
  // heartbeat is already deregistered, so this cannot mint extra verdicts.
  s.sample_at(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()));
  const std::lock_guard lock(mu);
  std::size_t inproc_verdicts = 0;
  for (const live::stall_event& ev : events) {
    EXPECT_EQ(ev.participant, "distributed.inproc.run") << ev.participant;
    EXPECT_GE(ev.silent_ms, 2 * kPeriodMs);
    if (ev.participant.find("distributed.inproc") != std::string::npos)
      ++inproc_verdicts;
  }
  EXPECT_EQ(inproc_verdicts, 1u);
  EXPECT_EQ(events.size(), 1u);
  // The live counters kept flowing under churn: the run landed in the
  // backend's per-lane counter and the sampler retained its series.
  EXPECT_EQ(reg.get_counter("distributed.network.runs.inproc").value(),
            runs_before + 1);
  bool lane_seen = false;
  for (const auto& sv : s.series())
    if (sv.name == "distributed.network.runs.inproc") lane_seen = true;
  EXPECT_TRUE(lane_seen) << "no distributed.network.runs.inproc series";
}

namespace {

// Every node pings its ring neighbours each round; node 0's round-2
// superstep throws with a round's worth of mail (16 messages) in flight.
class throw_at_round_two final : public distributed::process {
 public:
  void start(distributed::context& ctx) override { ping(ctx); }
  void receive(distributed::context&, const distributed::message&) override {}
  void on_round(distributed::context& ctx) override {
    if (ctx.id() == 0 && ctx.round() == 2)
      throw std::runtime_error("handler failed in round 2");
    ping(ctx);
  }

 private:
  static void ping(distributed::context& ctx) {
    for (int n : ctx.neighbors()) ctx.send(n, "ping");
  }
};

template <class Transport>
void expect_aborted_run_releases_liveness(const char* backend) {
  SCOPED_TRACE(backend);
  auto& wd = live::watchdog::global();
  wd.reset();
  Transport net({.nodes = 8, .workers = 2});
  net.spawn([](int) { return std::make_unique<throw_at_round_two>(); });
  EXPECT_THROW((void)net.run(10), std::runtime_error);
  // The transport is still alive, so a heartbeat the run failed to release
  // would still be registered, busy and silent: a phantom stall.
  EXPECT_EQ(wd.check(live::steady_now_ms() + 1000, 10, 2), 0u);
  EXPECT_EQ(telemetry::registry::global()
                .get_gauge("distributed.network.in_flight")
                .value(),
            0);
}

}  // namespace

// A handler that throws aborts run(): the exception reaches the caller,
// and the run still ends its watchdog participation and zeroes the
// in-flight gauge on every backend.
TEST(WatchdogTest, AbortedRunReleasesHeartbeatAndInFlightGauge) {
  expect_aborted_run_releases_liveness<distributed::sim_transport>("sim");
  expect_aborted_run_releases_liveness<distributed::parallel_transport>(
      "parallel");
  expect_aborted_run_releases_liveness<distributed::inproc_transport>(
      "inproc");
  live::watchdog::global().reset();
}

// ---------------------------------------------------------------------------
// env_info caching (shared environment block satellite)
// ---------------------------------------------------------------------------

TEST(EnvInfoTest, CachedBlockIsStableAcrossCallsExceptTimestamp) {
  const auto a = perf::env_info("2026-01-01T00:00:00Z");
  const auto b = perf::env_info("2026-01-02T00:00:00Z");
  EXPECT_EQ(a.compiler, b.compiler);
  EXPECT_EQ(a.build_type, b.build_type);
  EXPECT_EQ(a.cxx_flags, b.cxx_flags);
  EXPECT_EQ(a.hardware_threads, b.hardware_threads);
  EXPECT_EQ(a.os, b.os);
  EXPECT_EQ(a.timestamp, "2026-01-01T00:00:00Z");
  EXPECT_EQ(b.timestamp, "2026-01-02T00:00:00Z");
}

}  // namespace
