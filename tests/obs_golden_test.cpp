// Golden observability exports: the safety net under refactors of the
// instrumentation scopes and their clock.
//
// A fixed set of workloads whose capture is deterministic — an 8-node LCR
// election on `sim_transport`, one `stllint::lint_source`, a few
// `simplifier::simplify` calls and a one-chunk `run_chunks`, all on the
// calling thread — runs under a root trace span with the profiler in
// manual-clock mode.  The test then pins:
//   * a hash of the `cgp.prof.v1` document (manual clock: every byte is a
//     function of the probes executed);
//   * the multiset of Chrome-trace events with timestamps, ids, `seq` and
//     `tid` removed: name, cat, ph, pid, link, the parent span's name and
//     the remaining args of every event;
//   * the registry counters and histogram counts the pool's `run_chunks`
//     and `simplify_batch` scopes feed;
//   * the flight recorder's `span` entries (the `obs_export live` gate
//     needs them).
// The recorded values are never edited to make a change pass; a
// deliberate change of what the instrumentation exports is the only
// reason to re-record them, and must say so.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "distributed/algorithms.hpp"
#include "distributed/network.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/batch.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cgp {
namespace {

namespace trace = telemetry::trace;
namespace profile = telemetry::profile;
namespace live = telemetry::live;

std::uint64_t fnv1a(const std::vector<std::string>& parts) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::string& s : parts)
    for (const char c : s + '\x1e') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  return h;
}

rewrite::simplifier make_simplifier() {
  rewrite::simplifier s;
  s.add_default_concept_rules();
  s.enable_constant_folding();
  return s;
}

/// The deterministic workloads, all on the calling thread.
void run_workloads(parallel::work_stealing_pool& pool) {
  {
    distributed::sim_transport net({.nodes = 8});
    net.spawn(distributed::lcr_leader_election());
    (void)net.run(64);
  }
  (void)stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  for (int i = 0; i < 3; ++i) {
    v.push_back(i);
  }
  use(*it);
}
)");
  {
    const rewrite::simplifier s = make_simplifier();
    const std::map<std::string, std::string> types = {{"x", "int"},
                                                      {"y", "double"}};
    for (const char* src : {"(x + 0) * 1", "x + (-x)", "(y * 1.0) + 0.0",
                            "2 * 3 + x * 0", "-(-x) + 0"})
      (void)s.simplify(rewrite::parse_expr(src, types));
  }
  pool.run_chunks(1, [](std::size_t) {});
}

/// One line per exported trace event, ids and times stripped.
std::vector<std::string> event_keys(const std::string& chrome_trace) {
  const telemetry::json_value doc = telemetry::parse_json(chrome_trace);
  const auto& events = doc.at("traceEvents").arr;
  std::map<double, std::string> span_names;  // span_id -> begin name
  for (const auto& e : events)
    if (e.at("ph").str == "B")
      span_names[e.at("args").at("span_id").num] = e.at("name").str;
  std::vector<std::string> keys;
  for (const auto& e : events) {
    std::string key = e.at("name").str + "|" + e.at("cat").str + "|" +
                      e.at("ph").str + "|" +
                      telemetry::json_number_text(e.at("pid").num);
    const auto& args = e.at("args");
    if (args.has("link")) key += "|" + args.at("link").str;
    if (args.has("parent_span")) {
      const auto it = span_names.find(args.at("parent_span").num);
      key += "|parent=" + (it == span_names.end() ? "" : it->second);
    }
    for (const auto& [k, v] : args.obj) {
      if (k == "trace_id" || k == "span_id" || k == "parent_span" ||
          k == "seq" || k == "link")
        continue;
      key += "|" + k + "=" +
             (v.is(telemetry::json_value::kind::string)
                  ? v.str
                  : telemetry::json_number_text(v.num));
    }
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct capture {
  std::string profile_json;
  std::vector<std::string> events;
};

capture capture_workloads() {
  parallel::work_stealing_pool pool(3);
  auto& prof = profile::profiler::global();
  auto& sink = trace::sink::global();
  prof.disable();
  prof.set_manual_clock(true);
  prof.reset();
  sink.clear();
  prof.enable();
  {
    trace::trace_span root("obs_golden.root", "test");
    run_workloads(pool);
  }
  prof.disable();
  capture out;
  out.profile_json = profile::export_json(prof.snapshot());
  prof.set_manual_clock(false);
  out.events = event_keys(sink.export_chrome_trace());
  sink.clear();
  return out;
}

TEST(ObsGolden, ManualClockProfileBytes) {
  const capture c = capture_workloads();
  const telemetry::json_value doc = telemetry::parse_json(c.profile_json);
  EXPECT_TRUE(profile::validate_profile(doc).ok);
  const std::uint64_t h = fnv1a({c.profile_json});
  EXPECT_EQ(c.profile_json.size(), 1077u);
  EXPECT_EQ(h, 0xeb07c0cb00edddcdull) << "recorded 0x" << std::hex << h << "\n"
                       << c.profile_json;
}

TEST(ObsGolden, ChromeTraceEventMultiset) {
  const capture c = capture_workloads();
  const std::uint64_t h = fnv1a(c.events);
  std::string listing;
  for (const std::string& k : c.events) listing += k + "\n";
  EXPECT_EQ(c.events.size(), 480u);
  EXPECT_EQ(h, 0xcd0141c15aed094full) << "recorded 0x" << std::hex << h << "\n" << listing;
}

TEST(ObsGolden, RepeatedCaptureIsIdentical) {
  const capture a = capture_workloads();
  const capture b = capture_workloads();
  EXPECT_EQ(a.profile_json, b.profile_json);
  EXPECT_EQ(a.events, b.events);
}

TEST(ObsGolden, RunChunksAndBatchRegistryMetrics) {
  auto& reg = telemetry::registry::global();
  const auto count = [&reg](const char* name) {
    return reg.get_counter(name).value();
  };
  const auto samples = [&reg](const char* name) {
    return reg.get_histogram(name).count();
  };
  const std::uint64_t chunk_calls0 =
      count("parallel.work_stealing.run_chunks.calls");
  const std::uint64_t chunk_ops0 =
      count("parallel.work_stealing.run_chunks.ops");
  const std::uint64_t chunk_hist0 =
      samples("parallel.work_stealing.run_chunks.duration_us");
  const std::uint64_t batch_calls0 = count("rewrite.simplify_batch.calls");
  const std::uint64_t batch_ops0 = count("rewrite.simplify_batch.ops");
  const std::uint64_t batch_hist0 =
      samples("rewrite.simplify_batch.duration_us");

  parallel::work_stealing_pool pool(3);
  pool.run_chunks(1, [](std::size_t) {});
  const rewrite::simplifier s = make_simplifier();
  const std::map<std::string, std::string> types = {{"x", "int"}};
  std::vector<rewrite::expr> batch;
  for (int i = 0; i < 100; ++i)
    batch.push_back(rewrite::parse_expr(
        i % 2 == 0 ? "(x + 0) * 1" : "x + (-x)", types));
  const auto out = rewrite::simplify_batch(s, batch, pool);
  ASSERT_EQ(out.size(), batch.size());

  // One call of its own and one under the batch (12 chunks: 100 items,
  // grain 8, at most 4 chunks per worker).
  EXPECT_EQ(count("parallel.work_stealing.run_chunks.calls") - chunk_calls0,
            2u);
  EXPECT_EQ(count("parallel.work_stealing.run_chunks.ops") - chunk_ops0, 13u);
  EXPECT_EQ(samples("parallel.work_stealing.run_chunks.duration_us") -
                chunk_hist0,
            2u);
  EXPECT_EQ(count("rewrite.simplify_batch.calls") - batch_calls0, 1u);
  EXPECT_EQ(count("rewrite.simplify_batch.ops") - batch_ops0, 100u);
  EXPECT_EQ(samples("rewrite.simplify_batch.duration_us") - batch_hist0, 1u);
}

TEST(ObsGolden, FlightRecorderSpanEntries) {
  auto& recorder = live::flight_recorder::global();
  parallel::work_stealing_pool pool(3);
  const rewrite::simplifier s = make_simplifier();
  const std::map<std::string, std::string> types = {{"x", "int"}};
  std::vector<rewrite::expr> batch(100, rewrite::parse_expr("x * 1", types));
  recorder.clear();
  run_workloads(pool);
  (void)rewrite::simplify_batch(s, batch, pool);
  std::vector<std::string> spans;
  for (const live::flight_entry& e : recorder.snapshot())
    if (e.k == live::flight_entry::kind::span)
      spans.push_back(std::string(live::to_string(e.k)) + " " + e.name);
  const std::vector<std::string> want = {
      "span parallel.work_stealing.run_chunks",
      "span parallel.work_stealing.run_chunks",
      "span rewrite.simplify_batch",
  };
  EXPECT_EQ(spans, want);
}

// A fan-out's tasks close their telemetry before their completion is
// published, so everything is in place the moment run_chunks returns.
TEST(ObsGolden, FourChunkFanOutIsRecordedWhenRunChunksReturns) {
  parallel::work_stealing_pool pool(3);
  auto& prof = profile::profiler::global();
  auto& sink = trace::sink::global();
  auto& reg = telemetry::registry::global();
  const std::uint64_t completed0 =
      reg.get_counter("parallel.work_stealing.tasks_completed").value();
  const std::uint64_t task_us0 =
      reg.get_histogram("parallel.work_stealing.task_us").count();
  prof.disable();
  prof.reset();
  sink.clear();
  prof.enable();
  {
    trace::trace_span root("obs_golden.fanout", "test");
    pool.run_chunks(4, [](std::size_t) {});
  }
  prof.disable();
  std::uint64_t task_calls = 0;
  for (const profile::hot_frame& f : profile::hot_frames(prof.snapshot(), 64))
    if (f.name == "parallel.work_stealing.task") task_calls += f.count;
  EXPECT_EQ(task_calls, 4u);
  std::size_t task_ends = 0;
  const telemetry::json_value doc =
      telemetry::parse_json(sink.export_chrome_trace());
  for (const auto& e : doc.at("traceEvents").arr)
    if (e.at("name").str == "parallel.work_stealing.task" &&
        e.at("ph").str == "E")
      ++task_ends;
  EXPECT_EQ(task_ends, 4u);
  EXPECT_EQ(reg.get_counter("parallel.work_stealing.tasks_completed").value() -
                completed0,
            4u);
  EXPECT_EQ(reg.get_histogram("parallel.work_stealing.task_us").count() -
                task_us0,
            4u);
  sink.clear();
}

}  // namespace
}  // namespace cgp
