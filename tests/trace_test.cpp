// Tests for the causal tracing layer: span identity and nesting, the
// bounded lock-sharded sink, Chrome trace-event export round-tripped
// through the bundled JSON parser, context propagation across
// work_stealing_pool::submit and across distributed transport ranks,
// provenance instants from the rewriter and STLlint, and the trace
// validator's negative cases.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "distributed/network.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/export.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace cgp;
namespace trace = telemetry::trace;

/// The tests share the global sink (that is what the subsystem hooks write
/// to); each one starts from a clean slate and restores the default cap.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::sink::global().set_max_events(trace::sink::kDefaultMaxEvents);
    trace::sink::global().clear();
  }
  void TearDown() override {
    trace::sink::global().set_max_events(trace::sink::kDefaultMaxEvents);
    trace::sink::global().clear();
  }

  static trace::validation_result export_and_validate() {
    const std::string json = trace::sink::global().export_chrome_trace();
    return trace::validate_chrome_trace(telemetry::parse_json(json));
  }

  static std::vector<trace::event> events_named(const std::string& name) {
    std::vector<trace::event> out;
    for (const trace::event& e : trace::sink::global().snapshot())
      if (e.name == name) out.push_back(e);
    return out;
  }
};

// ---------------------------------------------------------------------------
// spans and context
// ---------------------------------------------------------------------------

TEST_F(TraceTest, RootSpanAllocatesIdentityAndBalances) {
  trace::span_context root_ctx;
  {
    trace::trace_span root("root", "test");
    root_ctx = root.context();
    EXPECT_TRUE(root_ctx.active());
    EXPECT_EQ(trace::current_context(), root_ctx);
  }
  EXPECT_FALSE(trace::current_context().active());
  const auto events = trace::sink::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, trace::event::phase::begin);
  EXPECT_EQ(events[0].link, trace::event::link_kind::root);
  EXPECT_EQ(events[0].parent_span, 0u);
  EXPECT_EQ(events[1].ph, trace::event::phase::end);
  EXPECT_EQ(events[1].span_id, root_ctx.span_id);
}

TEST_F(TraceTest, NestedSpansLinkAsScopeChildren) {
  {
    trace::trace_span root("root", "test");
    trace::trace_span child("child", "test");
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
  }
  const auto begins = events_named("child");
  ASSERT_FALSE(begins.empty());
  EXPECT_EQ(begins[0].link, trace::event::link_kind::scope);
  EXPECT_EQ(begins[0].parent_span, events_named("root")[0].span_id);
}

TEST_F(TraceTest, HooksAreSilentWithoutActiveContext) {
  const telemetry::scope_site site({.trace = "never.recorded", .cat = "test"});
  const telemetry::scope silent(site);
  EXPECT_FALSE(silent.recording());
  trace::instant("never.recorded.instant", "test");
  EXPECT_EQ(trace::flow_begin("never.recorded.flow"), 0u);
  trace::flow_end(0, "never.recorded.flow");
  EXPECT_EQ(trace::sink::global().size(), 0u);
}

TEST_F(TraceTest, ContextScopeAdoptionLinksAsAsync) {
  trace::span_context captured;
  {
    trace::trace_span root("root", "test");
    captured = root.context();
    {
      trace::context_scope adopt(captured);
      trace::trace_span adopted("adopted", "test");
      EXPECT_EQ(adopted.context().trace_id, captured.trace_id);
    }
    // The scope restored the original context (and its non-adopted state).
    EXPECT_EQ(trace::current_context(), captured);
    trace::trace_span sibling("sibling", "test");
  }
  EXPECT_EQ(events_named("adopted")[0].link, trace::event::link_kind::async);
  EXPECT_EQ(events_named("sibling")[0].link, trace::event::link_kind::scope);
  const auto v = export_and_validate();
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.spans, 3u);
  EXPECT_EQ(v.traces, 1u);
}

// ---------------------------------------------------------------------------
// the bounded sink
// ---------------------------------------------------------------------------

TEST_F(TraceTest, MaxEventsCapDropsNewEventsAndCounts) {
  auto& sink = trace::sink::global();
  // Tiny cap: one recording thread maps to one shard, whose slice is
  // max_events / kShards.
  sink.set_max_events(2 * trace::sink::kShards);
  const std::uint64_t before =
      telemetry::registry::global()
          .get_counter("telemetry.trace.dropped_events")
          .value();
  for (int i = 0; i < 8; ++i) trace::trace_span span("overflow", "test");
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 14u);
  EXPECT_EQ(telemetry::registry::global()
                .get_counter("telemetry.trace.dropped_events")
                .value() -
                before,
            14u);
  // The export reports the truncation instead of hiding it.
  const auto doc = telemetry::parse_json(sink.export_chrome_trace());
  EXPECT_EQ(doc.at("otherData").at("dropped_events").num, 14.0);
  EXPECT_EQ(doc.at("otherData").at("max_events").num,
            2.0 * trace::sink::kShards);
}

TEST_F(TraceTest, DropAccountingSurvivesExportRoundTrip) {
  // Regression: the drop counter must survive a full serialize -> parse ->
  // re-serialize -> parse cycle, not just appear in the first export — a
  // consumer that rewrites the document (as `obs_export trace` does when it
  // stamps the environment block) must not lose the truncation record.
  auto& sink = trace::sink::global();
  sink.set_max_events(2 * trace::sink::kShards);
  for (int i = 0; i < 8; ++i) trace::trace_span span("overflow", "test");
  ASSERT_GT(sink.dropped(), 0u);

  const auto once = telemetry::parse_json(sink.export_chrome_trace());
  const auto twice = telemetry::parse_json(telemetry::dump_json(once));
  EXPECT_EQ(twice.at("otherData").at("dropped_events").num,
            static_cast<double>(sink.dropped()));
  EXPECT_EQ(twice.at("otherData").at("max_events").num,
            once.at("otherData").at("max_events").num);
}

TEST_F(TraceTest, ExportRoundTripsThroughBundledJsonParser) {
  {
    trace::trace_span root("root", "test");
    root.arg("key", "value \"quoted\" \\ and\nnewline");
    trace::instant("marker", "test", {{"detail", "x"}});
    const std::uint64_t flow = trace::flow_begin("arrow", "test");
    trace::flow_end(flow, "arrow", "test");
  }
  const std::string json = trace::sink::global().export_chrome_trace();
  const auto doc = telemetry::parse_json(json);  // throws on malformed JSON
  ASSERT_TRUE(doc.at("traceEvents").is(telemetry::json_value::kind::array));
  EXPECT_EQ(doc.at("traceEvents").arr.size(), 5u);
  const auto v = trace::validate_chrome_trace(doc);
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.spans, 1u);
  EXPECT_EQ(v.instants, 1u);
  EXPECT_EQ(v.flows, 1u);
  EXPECT_EQ(v.roots, 1u);
}

// ---------------------------------------------------------------------------
// propagation across the thread pool
// ---------------------------------------------------------------------------

TEST_F(TraceTest, SubmitPropagatesContextToWorkers) {
  trace::span_context root_ctx;
  {
    trace::trace_span root("root", "test");
    root_ctx = root.context();
    parallel::work_stealing_pool pool(2);
    // The latch forces the two tasks onto two distinct workers.
    std::latch rendezvous(2);
    std::latch finished(2);
    for (int i = 0; i < 2; ++i)
      pool.submit([&] {
        rendezvous.arrive_and_wait();
        EXPECT_EQ(trace::current_context().trace_id, root_ctx.trace_id);
        finished.count_down();
      });
    finished.wait();
  }
  const auto tasks = events_named("parallel.work_stealing.task");
  std::set<std::uint32_t> tids;
  for (const trace::event& e : tasks)
    if (e.ph == trace::event::phase::begin) {
      tids.insert(e.tid);
      EXPECT_EQ(e.trace_id, root_ctx.trace_id);
      EXPECT_EQ(e.parent_span, root_ctx.span_id);
      EXPECT_EQ(e.link, trace::event::link_kind::async);
    }
  EXPECT_EQ(tids.size(), 2u);
  const auto v = export_and_validate();
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.traces, 1u);
  EXPECT_GE(v.threads, 3u);  // caller + two workers
  EXPECT_EQ(v.flows, 2u);    // one submit arrow per task
}

TEST_F(TraceTest, UntracedSubmitRecordsNothing) {
  parallel::work_stealing_pool pool(2);
  std::latch finished(4);
  for (int i = 0; i < 4; ++i) pool.submit([&] { finished.count_down(); });
  finished.wait();
  EXPECT_EQ(trace::sink::global().size(), 0u);
}

// ---------------------------------------------------------------------------
// propagation across distributed ranks
// ---------------------------------------------------------------------------

/// Two-node ping-pong: node 0 sends "ping" on start, node 1 answers
/// "pong" from its receive handler (so the pong's causal parent is the
/// ping's delivery span).
class pingpong : public distributed::process {
 public:
  explicit pingpong(int id) : id_(id) {}
  void start(distributed::context& ctx) override {
    if (id_ == 0) ctx.send(1, "ping", {1});
  }
  void receive(distributed::context& ctx,
               const distributed::message& m) override {
    if (m.tag == "ping") ctx.send(m.src, "pong", {2});
    if (m.tag == "pong") ctx.decide("done", 1);
  }

 private:
  int id_;
};

TEST_F(TraceTest, MessageEnvelopeCarriesContextAcrossRanks) {
  trace::span_context root_ctx;
  {
    trace::trace_span root("root", "test");
    root_ctx = root.context();
    distributed::sim_transport net({.nodes = 2});
    net.spawn([](int id) { return std::make_unique<pingpong>(id); });
    (void)net.run(8);
    EXPECT_EQ(net.decision(0, "done"), 1);
  }
  const auto recv_ping = events_named("recv.ping");
  const auto recv_pong = events_named("recv.pong");
  ASSERT_FALSE(recv_ping.empty());
  ASSERT_FALSE(recv_pong.empty());
  // Delivery spans land on the receiving rank's pid lane, stay in the
  // root's trace, and link async under the SEND site: the pong's parent
  // is the ping's delivery span — one causal chain across both ranks.
  EXPECT_EQ(recv_ping[0].pid, 1);
  EXPECT_EQ(recv_pong[0].pid, 0);
  EXPECT_EQ(recv_ping[0].trace_id, root_ctx.trace_id);
  EXPECT_EQ(recv_pong[0].trace_id, root_ctx.trace_id);
  EXPECT_EQ(recv_ping[0].link, trace::event::link_kind::async);
  EXPECT_EQ(recv_pong[0].parent_span, recv_ping[0].span_id);
  const auto v = export_and_validate();
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.traces, 1u);
  EXPECT_GE(v.ranks, 2u);
  EXPECT_EQ(v.flows, 2u);  // ping + pong arrows
}

TEST_F(TraceTest, UntracedNetworkRunRecordsNothing) {
  distributed::sim_transport net({.nodes = 2});
  net.spawn([](int id) { return std::make_unique<pingpong>(id); });
  (void)net.run(8);
  EXPECT_EQ(trace::sink::global().size(), 0u);
}

// ---------------------------------------------------------------------------
// provenance instants from the rewriter and STLlint
// ---------------------------------------------------------------------------

TEST_F(TraceTest, RewriteStepsBecomeInstantEvents) {
  {
    trace::trace_span root("root", "test");
    rewrite::simplifier simp;
    simp.add_default_concept_rules();
    (void)simp.simplify(
        rewrite::parse_expr("(x + 0) * 1", {{"x", "int"}}));
  }
  const auto steps = events_named("rewrite.step");
  ASSERT_GE(steps.size(), 2u);  // x+0 -> x, then x*1 -> x
  for (const trace::event& e : steps) {
    EXPECT_EQ(e.ph, trace::event::phase::instant);
    bool has_rule = false, has_before = false, has_after = false;
    for (const auto& [k, v] : e.args) {
      has_rule |= k == "rule" && !v.empty();
      has_before |= k == "before";
      has_after |= k == "after";
    }
    EXPECT_TRUE(has_rule && has_before && has_after);
  }
  const auto v = export_and_validate();
  EXPECT_TRUE(v.ok) << v.error_text();
}

TEST_F(TraceTest, StllintDiagnosticsBecomeInstantEventsWithProvenance) {
  {
    trace::trace_span root("root", "test");
    const auto r = stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
    EXPECT_FALSE(r.clean());
  }
  const auto diags = events_named("stllint.diagnostic");
  ASSERT_FALSE(diags.empty());
  bool has_provenance = false;
  for (const auto& [k, v] : diags[0].args)
    has_provenance |= k == "provenance" && !v.empty();
  EXPECT_TRUE(has_provenance);
  const auto v = export_and_validate();
  EXPECT_TRUE(v.ok) << v.error_text();
}

// ---------------------------------------------------------------------------
// validator negative cases
// ---------------------------------------------------------------------------

TEST_F(TraceTest, ValidatorFlagsUnbalancedAndOrphanedTraces) {
  const auto validate_text = [](const std::string& text) {
    return trace::validate_chrome_trace(telemetry::parse_json(text));
  };
  const auto ev = [](const char* ph, double ts, std::uint64_t span,
                     std::uint64_t parent, const char* link, int tid = 1) {
    std::string s = "{\"name\":\"x\",\"cat\":\"t\",\"ph\":\"";
    s += ph;
    s += "\",\"ts\":" + std::to_string(ts) +
         ",\"pid\":0,\"tid\":" + std::to_string(tid);
    s += ",\"args\":{\"trace_id\":1,\"span_id\":" + std::to_string(span);
    s += ",\"parent_span\":" + std::to_string(parent);
    s += ",\"seq\":" + std::to_string(static_cast<std::uint64_t>(ts));
    s += ",\"link\":\"" + std::string(link) + "\"}}";
    return s;
  };
  const auto doc = [](std::initializer_list<std::string> events) {
    std::string s = "{\"traceEvents\":[";
    bool first = true;
    for (const std::string& e : events) {
      if (!first) s += ",";
      first = false;
      s += e;
    }
    return s + "],\"otherData\":{}}";
  };

  // Begin with no end: unbalanced.
  auto v = validate_text(doc({ev("B", 1, 10, 0, "root")}));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error_text().find("never ended"), std::string::npos);

  // Parent id that appears nowhere: orphaned.
  v = validate_text(doc({ev("B", 1, 10, 99, "scope"),
                         ev("E", 2, 10, 0, "scope")}));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error_text().find("unknown parent"), std::string::npos);

  // Scope child (on its own lane) outliving its parent: out of parent
  // scope.
  v = validate_text(doc({ev("B", 1, 10, 0, "root"),
                         ev("B", 2, 11, 10, "scope", 2),
                         ev("E", 3, 10, 0, "root"),
                         ev("E", 4, 11, 0, "scope", 2)}));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error_text().find("out of parent scope"), std::string::npos);

  // The same shape under an async link is legal (adopted contexts only
  // promise causal order).
  v = validate_text(doc({ev("B", 1, 10, 0, "root"),
                         ev("B", 2, 11, 10, "async", 2),
                         ev("E", 3, 10, 0, "root"),
                         ev("E", 4, 11, 0, "async", 2)}));
  EXPECT_TRUE(v.ok) << v.error_text();
}

// ---------------------------------------------------------------------------
// counter tracks
// ---------------------------------------------------------------------------

TEST_F(TraceTest, CounterSamplesRecordOnlyUnderATrace) {
  // Untraced: silent, like every other hook.
  trace::counter_sample("metrics.silent", 1.0);
  trace::sample_registry_counters("anything.");
  EXPECT_EQ(trace::sink::global().size(), 0u);

  {
    trace::trace_span root("root", "test");
    trace::counter_sample("metrics.visible", 42.5);
    trace::counter_sample("x", 1234567.0);
  }
  const auto samples = events_named("metrics.visible");
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].ph, trace::event::phase::counter);
  EXPECT_DOUBLE_EQ(samples[0].value, 42.5);

  // The Chrome export keeps every digit of a sample.
  const auto doc =
      telemetry::parse_json(trace::sink::global().export_chrome_trace());
  const telemetry::json_value* x = nullptr;
  for (const auto& e : doc.at("traceEvents").arr)
    if (e.at("name").str == "x") x = &e;
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->at("args").at("value").num, 1234567.0);
}

TEST_F(TraceTest, RegistrySamplingExportsValidatedCounterTracks) {
  auto& reg = telemetry::registry::global();
  reg.get_counter("tracectr.a").add(3);
  reg.get_counter("tracectr.b").add(9);
  reg.get_counter("othersys.c").add(100);
  {
    trace::trace_span root("root", "test");
    trace::sample_registry_counters("tracectr.");
  }

  const std::string json = trace::sink::global().export_chrome_trace();
  const auto doc = telemetry::parse_json(json);
  // Each 'C' event carries exactly the plotted series in args.value
  // (extra keys would become their own Perfetto series).
  std::size_t counter_events = 0;
  for (const auto& e : doc.at("traceEvents").arr) {
    if (e.at("ph").str != "C") continue;
    ++counter_events;
    EXPECT_EQ(e.at("name").str.rfind("tracectr.", 0), 0u);
    ASSERT_TRUE(e.at("args").has("value"));
    EXPECT_TRUE(e.at("args").at("value").is(telemetry::json_value::kind::number));
  }
  EXPECT_EQ(counter_events, 2u);

  const auto v = trace::validate_chrome_trace(doc);
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.counters, 2u);
}

TEST_F(TraceTest, ValidatorRejectsCounterWithoutNumericValue) {
  const auto validate_text = [](const std::string& text) {
    return trace::validate_chrome_trace(telemetry::parse_json(text));
  };
  // A counter event with no args.value is not plottable.
  auto v = validate_text(
      "{\"traceEvents\":[{\"name\":\"m\",\"cat\":\"c\",\"ph\":\"C\","
      "\"ts\":1,\"pid\":0,\"tid\":1,\"args\":{}}],\"otherData\":{}}");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error_text().find("value"), std::string::npos);
  // A nameless counter has no track to land on.
  v = validate_text(
      "{\"traceEvents\":[{\"name\":\"\",\"cat\":\"c\",\"ph\":\"C\","
      "\"ts\":1,\"pid\":0,\"tid\":1,\"args\":{\"value\":1}}],"
      "\"otherData\":{}}");
  EXPECT_FALSE(v.ok);
  // A well-formed counter among spans validates and is counted.
  v = validate_text(
      "{\"traceEvents\":[{\"name\":\"m\",\"cat\":\"c\",\"ph\":\"C\","
      "\"ts\":1,\"pid\":0,\"tid\":1,\"args\":{\"value\":3.5}}],"
      "\"otherData\":{}}");
  EXPECT_TRUE(v.ok) << v.error_text();
  EXPECT_EQ(v.counters, 1u);
}

// ---------------------------------------------------------------------------
// caret rendering (the diagnostic's human-facing form)
// ---------------------------------------------------------------------------

TEST_F(TraceTest, DiagnosticsCarryProvenanceAndRenderWithCaret) {
  const auto r = stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
  ASSERT_FALSE(r.diags.empty());
  const stllint::diagnostic& d = r.diags.front();
  EXPECT_FALSE(d.provenance.empty());
  // The trail ends at (or after) the invalidating push_back.
  bool mentions_push_back = false;
  for (const stllint::provenance_step& s : d.provenance)
    mentions_push_back |=
        d.action_text(s).find("push_back") != std::string::npos;
  EXPECT_TRUE(mentions_push_back);
  const std::string rendered = stllint::render_caret(d);
  EXPECT_NE(rendered.find("--> line"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
  EXPECT_NE(rendered.find("provenance:"), std::string::npos);
}

}  // namespace
