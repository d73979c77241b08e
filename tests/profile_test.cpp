// Tests for the span-attributed deterministic profiler (DESIGN.md §11):
// frame interning, manual-clock inclusive/exclusive math, cross-thread
// merge-by-name, byte-identical cgp.prof.v1 exports, collapsed-stack and
// hot-table renderings, structural validation (and its rejections),
// cross-thread adoption via current_path/adopt_scope, thread-pool task
// attribution, profile diffing (perf::profile_diff), and the
// snapshot-while-probing race the tsan-profile preset hammers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "parallel/work_stealing_pool.hpp"
#include "perf/profdiff.hpp"
#include "perf/report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/health.hpp"
#include "telemetry/live.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cgp;
namespace profile = telemetry::profile;

// Every test drives the process-global profiler, so each starts from a
// known state: manual clock (deterministic ticks) and zeroed accumulators.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& p = profile::profiler::global();
    p.disable();
    p.set_manual_clock(true);
    p.reset();
  }
  void TearDown() override {
    auto& p = profile::profiler::global();
    p.disable();
    p.set_manual_clock(false);
    p.reset();
  }
};

/// A profiler-frame scope over its own site (call sites keep the site in
/// a static instead).
struct frame_scope {
  explicit frame_scope(std::string_view frame)
      : site({.frame = frame}), scope(site) {}
  [[nodiscard]] bool recording() const noexcept { return scope.recording(); }
  [[nodiscard]] telemetry::trace::span_context context() const noexcept {
    return scope.context();
  }
  telemetry::scope_site site;
  telemetry::scope scope;
};

const profile::profile_node* find_child(
    const std::vector<profile::profile_node>& nodes, const std::string& name) {
  for (const auto& n : nodes)
    if (n.name == name) return &n;
  return nullptr;
}

// ---------------------------------------------------------------------------
// interning
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, InternIsIdempotentAndNamesRoundTrip) {
  const auto a = profile::intern("profile_test.intern.a");
  const auto b = profile::intern("profile_test.intern.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(profile::intern("profile_test.intern.a"), a);
  EXPECT_EQ(profile::frame_name(a), "profile_test.intern.a");
  EXPECT_EQ(profile::frame_name(b), "profile_test.intern.b");
  EXPECT_THROW((void)profile::frame_name(profile::kNoFrame),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// probe math (manual clock: every clock read is one tick)
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, DisabledProbesRecordNothing) {
  {
    frame_scope p("profile_test.disabled");
    EXPECT_FALSE(p.recording());
  }
  {
    frame_scope p("profile_test.disabled.id");
    EXPECT_FALSE(p.recording());
  }
  EXPECT_TRUE(profile::current_path().empty());
  const auto snap = profile::profiler::global().snapshot();
  EXPECT_TRUE(snap.roots.empty());
  EXPECT_EQ(snap.unit, "ticks");
}

TEST_F(ProfileTest, NestedProbesSplitInclusiveAndExclusive) {
  auto& p = profile::profiler::global();
  p.enable();
  {
    frame_scope outer("profile_test.outer");
    EXPECT_TRUE(outer.recording());
    for (int i = 0; i < 2; ++i)
      frame_scope inner("profile_test.inner");
  }
  p.disable();
  const auto snap = p.snapshot();
  const auto* outer = find_child(snap.roots, "profile_test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const auto* inner = find_child(outer->children, "profile_test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_TRUE(inner->children.empty());
  // The tree invariant export/validation rely on, plus "time actually
  // passed everywhere" (each probe costs two clock reads ⇒ ≥1 tick).
  EXPECT_EQ(outer->incl, outer->excl + inner->incl);
  EXPECT_GT(inner->incl, 0u);
  EXPECT_GT(outer->excl, 0u);
  EXPECT_GE(inner->incl, inner->excl);
}

TEST_F(ProfileTest, ResetZeroesAccumulatorsButKeepsInternedIds) {
  auto& p = profile::profiler::global();
  const telemetry::scope_site f({.frame = "profile_test.reset.frame"});
  p.enable();
  { const telemetry::scope pr(f); }
  p.disable();
  ASSERT_FALSE(p.snapshot().roots.empty());
  p.reset();
  EXPECT_TRUE(p.snapshot().roots.empty());
  // The cached id survives the reset and records again.
  p.enable();
  { const telemetry::scope pr(f); }
  p.disable();
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.roots.size(), 1u);
  EXPECT_EQ(snap.roots[0].name, "profile_test.reset.frame");
  EXPECT_EQ(snap.roots[0].count, 1u);
}

// ---------------------------------------------------------------------------
// cross-thread merge and adoption
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, SnapshotMergesThreadsByName) {
  auto& p = profile::profiler::global();
  p.enable();
  auto work = [] {
    frame_scope root("profile_test.shared.root");
    frame_scope leaf("profile_test.shared.leaf");
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  p.disable();
  const auto snap = p.snapshot();
  // Two threads, one merged tree: aggregation keys on frame names, so the
  // per-thread trees collapse into a single path with count 2.
  const auto* root = find_child(snap.roots, "profile_test.shared.root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->count, 2u);
  const auto* leaf = find_child(root->children, "profile_test.shared.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 2u);
  EXPECT_EQ(root->incl, root->excl + leaf->incl);
}

TEST_F(ProfileTest, AdoptScopeReRootsWorkerFramesUnderSubmitterPath) {
  auto& p = profile::profiler::global();
  p.enable();
  profile::call_path captured;
  {
    frame_scope submitter("profile_test.adopt.submitter");
    captured = profile::current_path();
  }
  ASSERT_EQ(captured.size(), 1u);
  std::thread worker([&captured] {
    profile::adopt_scope adopt(captured);
    frame_scope leaf("profile_test.adopt.leaf");
  });
  worker.join();
  p.disable();
  const auto snap = p.snapshot();
  const auto* submitter =
      find_child(snap.roots, "profile_test.adopt.submitter");
  ASSERT_NE(submitter, nullptr);
  // One timed invocation on the submitting thread; the worker-side
  // waypoint carries structure, not an extra count.
  EXPECT_EQ(submitter->count, 1u);
  const auto* leaf = find_child(submitter->children, "profile_test.adopt.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 1u);
  EXPECT_GT(leaf->incl, 0u);
  // Waypoint reconstruction: the parent's inclusive time absorbs the
  // adopted child's even though the child ran on another thread.
  EXPECT_EQ(submitter->incl, submitter->excl + leaf->incl);
  const auto doc = telemetry::parse_json(profile::export_json(snap));
  const auto v = profile::validate_profile(doc);
  EXPECT_TRUE(v.ok) << profile::export_json(snap);
}

TEST_F(ProfileTest, ThreadPoolTasksNestUnderSubmittingFrame) {
  auto& p = profile::profiler::global();
  p.enable();
  {
    frame_scope bench("profile_test.pool.parent");
    parallel::work_stealing_pool pool(2);
    pool.run_chunks(4, [](std::size_t) {
      frame_scope work("profile_test.pool.work");
    });
  }
  p.disable();
  const auto snap = p.snapshot();
  const auto* parent = find_child(snap.roots, "profile_test.pool.parent");
  ASSERT_NE(parent, nullptr);
  const auto* chunks =
      find_child(parent->children, "parallel.work_stealing.run_chunks");
  ASSERT_NE(chunks, nullptr);
  const auto* task = find_child(chunks->children, "parallel.work_stealing.task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 4u);
  const auto* work = find_child(task->children, "profile_test.pool.work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->count, 4u);
  const auto doc = telemetry::parse_json(profile::export_json(snap));
  EXPECT_TRUE(profile::validate_profile(doc).ok);
}

// ---------------------------------------------------------------------------
// trace linkage
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, ProbesCountInvocationsUnderActiveTraces) {
  auto& p = profile::profiler::global();
  p.enable();
  {
    frame_scope untraced("profile_test.traced.frame");
  }
  {
    telemetry::trace::trace_span span("profile_test.traced.span", "test");
    frame_scope traced("profile_test.traced.frame");
    EXPECT_TRUE(traced.context().active());
    EXPECT_EQ(traced.context().trace_id, span.context().trace_id);
  }
  p.disable();
  const auto snap = p.snapshot();
  const auto* frame = find_child(snap.roots, "profile_test.traced.frame");
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->count, 2u);
  EXPECT_EQ(frame->traced, 1u);
}

// ---------------------------------------------------------------------------
// exports: determinism, collapsed stacks, hot table, validation
// ---------------------------------------------------------------------------

namespace {
void run_canned_workload() {
  frame_scope a("profile_test.det.a");
  for (int i = 0; i < 3; ++i) {
    frame_scope b("profile_test.det.b");
    frame_scope c("profile_test.det.c");
  }
  frame_scope d("profile_test.det.d");
}
}  // namespace

TEST_F(ProfileTest, ManualClockExportIsByteIdenticalAcrossRuns) {
  auto& p = profile::profiler::global();
  std::vector<std::string> exports;
  for (int run = 0; run < 2; ++run) {
    p.reset();
    p.enable();
    run_canned_workload();
    p.disable();
    exports.push_back(profile::export_json(p.snapshot()));
  }
  EXPECT_EQ(exports[0], exports[1]);
  const auto doc = telemetry::parse_json(exports[0]);
  const auto v = profile::validate_profile(doc);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.roots, 1u);
  EXPECT_EQ(v.nodes, 4u);  // a, a;b, a;b;c, a;d
  EXPECT_EQ(v.max_depth, 3u);
  EXPECT_EQ(doc.at("unit").str, "ticks");
}

TEST_F(ProfileTest, CollapsedStacksAreSortedSemicolonPaths) {
  auto& p = profile::profiler::global();
  p.enable();
  run_canned_workload();
  p.disable();
  const std::string folded = profile::collapsed(p.snapshot());
  // Every line is "path weight\n" with the path frames ';'-joined.
  EXPECT_NE(folded.find("profile_test.det.a;profile_test.det.b;"
                        "profile_test.det.c "),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("profile_test.det.a;profile_test.det.d "),
            std::string::npos)
      << folded;
  // Lexicographic line order (flamegraph.pl does not care; diffing does).
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < folded.size()) {
    const std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) break;  // collapsed() always ends in \n
    lines.push_back(folded.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GE(lines.size(), 2u);
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_LT(lines[i - 1], lines[i]);
}

TEST_F(ProfileTest, HotFramesRankBySummedExclusiveTime) {
  auto& p = profile::profiler::global();
  p.enable();
  run_canned_workload();
  p.disable();
  const auto snap = p.snapshot();
  const auto hot = profile::hot_frames(snap, 10);
  ASSERT_GE(hot.size(), 3u);
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(hot[i - 1].excl, hot[i].excl);
  // "b" encloses three "c" probes, so it accrues the most exclusive ticks.
  EXPECT_EQ(hot[0].name, "profile_test.det.b");
  EXPECT_EQ(hot[0].count, 3u);
  const std::string table = profile::render_hot_table(snap, 3);
  EXPECT_NE(table.find("profile_test.det.b"), std::string::npos) << table;
  // A truncated table still mentions every requested rank.
  EXPECT_NE(table.find(" 1. "), std::string::npos) << table;
  EXPECT_NE(table.find(" 3. "), std::string::npos) << table;
}

TEST_F(ProfileTest, ValidatorRejectsTamperedDocuments) {
  auto& p = profile::profiler::global();
  p.enable();
  run_canned_workload();
  p.disable();
  const std::string json = profile::export_json(p.snapshot());

  auto doc = telemetry::parse_json(json);
  ASSERT_TRUE(profile::validate_profile(doc).ok);

  // excl > incl on a leaf.
  auto tampered = telemetry::parse_json(json);
  tampered.obj["roots"].arr[0].obj["excl"].num =
      tampered.at("roots").arr[0].at("incl").num + 1.0;
  EXPECT_FALSE(profile::validate_profile(tampered).ok);

  // incl != excl + Σ children incl.
  auto broken_sum = telemetry::parse_json(json);
  broken_sum.obj["roots"].arr[0].obj["incl"].num += 100.0;
  EXPECT_FALSE(profile::validate_profile(broken_sum).ok);

  // Unsorted siblings.
  auto unsorted = telemetry::parse_json(json);
  auto& kids = unsorted.obj["roots"].arr[0].obj["children"].arr;
  ASSERT_EQ(kids.size(), 2u);
  std::swap(kids[0], kids[1]);
  EXPECT_FALSE(profile::validate_profile(unsorted).ok);

  // traced > count.
  auto overtraced = telemetry::parse_json(json);
  overtraced.obj["roots"].arr[0].obj["traced"].num =
      overtraced.at("roots").arr[0].at("count").num + 1.0;
  EXPECT_FALSE(profile::validate_profile(overtraced).ok);

  // Wrong recursive frame count.
  auto miscounted = telemetry::parse_json(json);
  miscounted.obj["frames"].num += 1.0;
  EXPECT_FALSE(profile::validate_profile(miscounted).ok);

  // Not a profile document at all.
  auto alien = telemetry::parse_json("{\"schema\":\"cgp.flight.v1\"}");
  EXPECT_FALSE(profile::validate_profile(alien).ok);

  // Every document checker accepts its own minimal document and rejects
  // that document once its schema tag is wrong or missing.
  static constexpr char kPerf[] =
      "{\"schema\":\"cgp.perf.v1\",\"benchmarks\":[]}";
  struct checker {
    const char* good;
    bool (*accepts)(const telemetry::json_value&);
  };
  const checker checkers[] = {
      {"{\"schema\":\"cgp.live.v1\",\"period_ms\":40,\"capacity\":8,"
       "\"samples\":0,\"series\":[]}",
       [](const telemetry::json_value& d) {
         return telemetry::live::validate_live_export(d).ok;
       }},
      {"{\"schema\":\"cgp.flight.v1\",\"capacity\":1,\"recorded\":0,"
       "\"overwritten\":0,\"entries\":[]}",
       [](const telemetry::json_value& d) {
         return telemetry::live::validate_flight_dump(d).ok;
       }},
      {"{\"schema\":\"cgp.health.v1\",\"clock\":\"manual\",\"ticks\":0,"
       "\"reservoir_k\":1,\"shards\":1,\"seed\":0,\"rules\":[],"
       "\"backends\":[],\"verdicts\":[]}",
       [](const telemetry::json_value& d) {
         return telemetry::health::validate_health_export(d).ok;
       }},
      {"{\"schema\":\"cgp.prof.v1\",\"unit\":\"ns\",\"roots\":[],"
       "\"frames\":0}",
       [](const telemetry::json_value& d) {
         return profile::validate_profile(d).ok;
       }},
      {kPerf,
       [](const telemetry::json_value& d) {
         // Either side of the comparison may be the malformed one.
         const auto good = telemetry::parse_json(kPerf);
         return perf::compare_reports(d, good).empty() &&
                perf::compare_reports(good, d).empty();
       }},
  };
  for (const checker& c : checkers) {
    const auto good = telemetry::parse_json(c.good);
    EXPECT_TRUE(c.accepts(good)) << c.good;
    auto wrong = good;
    wrong.obj["schema"].str = "cgp.alien.v1";
    EXPECT_FALSE(c.accepts(wrong)) << "wrong tag: " << c.good;
    auto missing = good;
    missing.obj.erase("schema");
    EXPECT_FALSE(c.accepts(missing)) << "missing tag: " << c.good;
  }
}

// ---------------------------------------------------------------------------
// profile diff (perf::profile_diff)
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, ProfileDiffClassifiesGrownShrunkNewVanished) {
  auto& p = profile::profiler::global();

  p.reset();
  p.enable();
  {
    frame_scope a("diff.a");
    { frame_scope b("diff.b"); }
    { frame_scope gone("diff.gone"); }
  }
  p.disable();
  const auto before = telemetry::parse_json(profile::export_json(p.snapshot()));

  p.reset();
  p.enable();
  {
    frame_scope a("diff.a");
    // "diff.b" runs 5× as often (grown); "diff.gone" vanished;
    // "diff.fresh" is new.
    for (int i = 0; i < 5; ++i) frame_scope b("diff.b");
    { frame_scope fresh("diff.fresh"); }
  }
  p.disable();
  const auto after = telemetry::parse_json(profile::export_json(p.snapshot()));

  const auto d = perf::profile_diff(before, after);
  ASSERT_TRUE(d.ok) << perf::render_profile_diff(d, 10);
  EXPECT_EQ(d.unit, "ticks");
  ASSERT_FALSE(d.deltas.empty());
  // Sorted by |delta| descending.
  for (std::size_t i = 1; i < d.deltas.size(); ++i)
    EXPECT_GE(std::abs(d.deltas[i - 1].delta), std::abs(d.deltas[i].delta));
  bool saw_grown = false, saw_new = false, saw_vanished = false;
  for (const auto& fd : d.deltas) {
    if (fd.path == "diff.a;diff.b") {
      EXPECT_EQ(fd.status, "grown");
      EXPECT_GT(fd.delta, 0.0);
      EXPECT_EQ(fd.count_before, 1u);
      EXPECT_EQ(fd.count_after, 5u);
      saw_grown = true;
    }
    if (fd.path == "diff.a;diff.fresh") {
      EXPECT_EQ(fd.status, "new");
      saw_new = true;
    }
    if (fd.path == "diff.a;diff.gone") {
      EXPECT_EQ(fd.status, "vanished");
      EXPECT_LT(fd.delta, 0.0);
      saw_vanished = true;
    }
  }
  EXPECT_TRUE(saw_grown);
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_vanished);
  const std::string rendered = perf::render_profile_diff(d, 10);
  EXPECT_NE(rendered.find("grown"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("diff.a;diff.b"), std::string::npos) << rendered;
}

TEST_F(ProfileTest, ProfileDiffRejectsUnitMismatchAndInvalidDocs) {
  auto& p = profile::profiler::global();
  p.enable();
  { frame_scope a("diff.unit.a"); }
  p.disable();
  const std::string json = profile::export_json(p.snapshot());
  auto ticks_doc = telemetry::parse_json(json);
  auto ns_doc = telemetry::parse_json(json);
  ns_doc.obj["unit"].str = "ns";
  const auto mismatch = perf::profile_diff(ticks_doc, ns_doc);
  EXPECT_FALSE(mismatch.ok);
  auto alien = telemetry::parse_json("{\"schema\":\"nope\"}");
  EXPECT_FALSE(perf::profile_diff(ticks_doc, alien).ok);
  EXPECT_FALSE(perf::profile_diff(alien, ticks_doc).ok);
}

// ---------------------------------------------------------------------------
// races (the tsan-profile preset runs this suite under ThreadSanitizer)
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, SnapshotWhileProbingIsSafe) {
  auto& p = profile::profiler::global();
  p.enable();
  std::thread prober([] {
    for (int i = 0; i < 2000; ++i) {
      frame_scope outer("profile_test.race.outer");
      frame_scope inner("profile_test.race.inner");
    }
  });
  for (int i = 0; i < 50; ++i) {
    const auto snap = profile::profiler::global().snapshot();
    (void)profile::collapsed(snap);
    (void)profile::export_json(snap);
  }
  prober.join();
  p.disable();
  // Quiescent now: the final export must be structurally sound.
  const auto doc =
      telemetry::parse_json(profile::export_json(p.snapshot()));
  const auto v = profile::validate_profile(doc);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
}

}  // namespace
