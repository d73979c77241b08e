// Performance observatory driver: runs the statistical benchmark registry
// across the instrumented subsystems, emits a machine-readable
// BENCH_perf.json trajectory point, and gates against a checked-in
// baseline.
//
//   perf_report [--out FILE]              write report (default BENCH_perf.json)
//               [--baseline FILE]         compare against a baseline report
//               [--quick]                 shorter batches, same n-sweeps
//               [--time-tolerance X]      baseline time-gate ratio (default 4)
//               [--no-gate-time]          counters-only gate (deterministic)
//               [--plant-regression NAME] artificially slow one benchmark 6x
//                                         (self-test: the gate must trip)
//               [--profile]               capture a deterministic manual-clock
//                                         call-graph profile of the registry:
//                                         writes cgp.prof.v1 JSON + collapsed
//                                         stacks, prints the hot-path table,
//                                         and (with --plant-regression) the
//                                         clean-vs-planted profile diff
//               [--profile-out FILE]      profile path (default PROF_perf.json;
//                                         collapsed stacks land next to it
//                                         with a .folded extension)
//               [--self-check-diff]       with --plant-regression: exit 0 only
//                                         when the clean-vs-planted diff
//                                         localizes the planted benchmark in
//                                         its top-5 grown paths
//               [--list]                  print benchmark names and exit
//
// Exit codes: 0 ok; 1 regression vs baseline; 2 a fitted-vs-declared
// complexity verdict came back violated (or inconclusive, which for these
// curated sweeps means the harness itself broke); 3 usage/IO error; 4 an
// overhead gate (live sampler or profiler probes on the work-stealing
// pool, or the health observatory on the sim transport) exceeded its
// budget; 5 a profile self-check failed (capture not
// byte-deterministic, structural validation, or --self-check-diff failed
// to localize the planted regression).
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "distributed/algorithms.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "graph/instrumented.hpp"
#include "parallel/task_group.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/benchmark.hpp"
#include "perf/env_info.hpp"
#include "perf/profdiff.hpp"
#include "perf/report.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "sequences/instrumented.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/health.hpp"
#include "telemetry/live.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/scope.hpp"

namespace {

using namespace cgp;

std::vector<int> random_ints(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 1 << 30);
  std::vector<int> v(n);
  for (int& x : v) x = dist(rng);
  return v;
}

// Nested, irregular fork-join — the workload shape work stealing exists
// for (same tree as bench/sec4_dataparallel.cpp).  Each of n roots forks
// a skewed batch of leaf tasks through a nested task_group, so the total
// task count is a deterministic, linear function of n and the scaling
// sweep below can fit (and baseline-gate) ops on the pool's task counters.
void nested_irregular(parallel::work_stealing_pool& pool, std::size_t roots) {
  using group_t = parallel::task_group<parallel::work_stealing_pool>;
  group_t group(pool);
  for (std::size_t r = 0; r < roots; ++r)
    group.run([&pool, r] {
      group_t inner(pool);
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

// --- benchmark registry -----------------------------------------------------

// Quick mode truncates the distributed.scaling node sweep here: the
// million-node point is a multi-second workload per invocation, which the
// shortened timing batches cannot amortize.  main() prunes the same points
// from the BASELINE before gating, so the truncation reads as "not
// measured today", never as a coverage regression.
constexpr std::size_t kQuickScalingCap = 100'000;

perf::bench_registry build_registry(bool quick) {
  perf::bench_registry reg;

  // Concept-dispatched introsort: ComplexityO(n log n) comparisons.
  reg.add({.name = "sequences.sort",
           .subsystem = "sequences",
           .declared = core::big_o::power("n", 1, 1),
           .sizes = {512, 1024, 2048, 4096, 8192},
           .counter_prefix = "sequences.sort.comparisons",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto input = random_ints(n, static_cast<std::uint32_t>(n));
             return [input] {
               auto v = input;
               (void)sequences::instrumented::sort(v.begin(), v.end());
             };
           }});

  // Buffered mergesort: also O(n log n), strictly stable.
  reg.add({.name = "sequences.stable_sort",
           .subsystem = "sequences",
           .declared = core::big_o::power("n", 1, 1),
           .sizes = {512, 1024, 2048, 4096, 8192},
           .counter_prefix = "sequences.stable_sort.comparisons",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto input = random_ints(n, static_cast<std::uint32_t>(n) + 7);
             return [input] {
               auto v = input;
               (void)sequences::instrumented::stable_sort(v.begin(), v.end());
             };
           }});

  // Binary search on a random-access range: O(log n) comparisons.
  reg.add({.name = "sequences.lower_bound",
           .subsystem = "sequences",
           .declared = core::big_o::log_n(),
           .sizes = {1024, 4096, 16384, 65536, 262144},
           .counter_prefix = "sequences.lower_bound.comparisons",
           .setup = [](std::size_t n) -> std::function<void()> {
             std::vector<int> sorted(n);
             std::iota(sorted.begin(), sorted.end(), 0);
             auto key = std::make_shared<std::size_t>(0);
             return [sorted, key, n] {
               *key = (*key * 2654435761u + 1) % n;
               (void)sequences::instrumented::lower_bound_count(
                   sorted.begin(), sorted.end(), static_cast<int>(*key));
             };
           }});

  // Fixpoint simplification of an n-term identity chain.  The bottom-up
  // pass collapses every `+ 0` in one sweep, so the measured cost is
  // linear in the chain length — declared O(n), which the fit enforces
  // (a rule change that reintroduces per-pass rescans would show up as a
  // violated verdict here).
  reg.add({.name = "rewrite.simplifier",
           .subsystem = "rewrite",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "rewrite.simplifier.",
           .setup = [](std::size_t n) -> std::function<void()> {
             std::string src = "x";
             for (std::size_t i = 0; i < n; ++i) src = "(" + src + " + 0)";
             auto e = std::make_shared<rewrite::expr>(
                 rewrite::parse_expr(src, {{"x", "int"}}));
             auto simp = std::make_shared<rewrite::simplifier>();
             simp->add_default_concept_rules();
             simp->enable_constant_folding();
             return [e, simp] { (void)simp->simplify(*e); };
           }});

  // STLlint fixpoint analysis over n generated functions: linear in the
  // amount of code.
  reg.add({.name = "stllint.analyzer",
           .subsystem = "stllint",
           .declared = core::big_o::n(),
           .sizes = {4, 8, 16, 32, 64},
           .counter_prefix = "stllint.analyzer.",
           .setup = [](std::size_t n) -> std::function<void()> {
             std::ostringstream src;
             for (std::size_t i = 0; i < n; ++i)
               src << "void f" << i << "(vector<int>& v) {\n"
                   << "  int i = 0;\n"
                   << "  while (i < 10) {\n"
                   << "    v.push_back(i);\n"
                   << "    i = i + 1;\n"
                   << "  }\n"
                   << "}\n";
             auto source = std::make_shared<std::string>(src.str());
             return [source] { (void)stllint::lint_source(*source); };
           }});

  // Pool fan-out: n chunks cost n submitted + n completed tasks.
  // The pool itself is constructed in setup, outside the timed region.
  reg.add({.name = "parallel.work_stealing",
           .subsystem = "parallel",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "parallel.work_stealing.tasks",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto pool = std::make_shared<parallel::work_stealing_pool>(2);
             return [pool, n] {
               pool->run_chunks(n, [](std::size_t c) {
                 volatile std::size_t sink = 0;
                 for (std::size_t i = 0; i < 64; ++i) sink = sink + c;
               });
             };
           }});

  // The same fan-out with the live sampler streaming in the background:
  // the pair quantifies continuous observation's cost on the hottest
  // concurrent path.  Same declared bound, same deterministic task
  // counters; the sampler_overhead gate below compares the two sweeps'
  // wall times and trips when sampling costs more than its budget.
  reg.add({.name = "parallel.work_stealing.sampled",
           .subsystem = "parallel",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "parallel.work_stealing.tasks",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto pool = std::make_shared<parallel::work_stealing_pool>(2);
             auto sampler = std::make_shared<telemetry::live::sampler>(
                 telemetry::live::sample_options{.period_ms = 25,
                                                 .capacity = 256,
                                                 .watch = true});
             sampler->start();
             return [pool, sampler, n] {
               pool->run_chunks(n, [](std::size_t c) {
                 volatile std::size_t sink = 0;
                 for (std::size_t i = 0; i < 64; ++i) sink = sink + c;
               });
             };
           }});

  // And the same fan-out again with profiler probes live: the profiling
  // session enables wall-clock collection for this sweep only, so every
  // task runs the submit wrapper (path capture + adopt + probe).  The
  // probe_overhead gate below compares this sweep against the bare pool
  // and trips when attribution costs more than its budget.
  reg.add({.name = "parallel.work_stealing.profiled",
           .subsystem = "parallel",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "parallel.work_stealing.tasks",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto pool = std::make_shared<parallel::work_stealing_pool>(2);
             // RAII profiling session: enable on entry unless an outer
             // capture (--profile) already owns the profiler, in which
             // case both ends are no-ops and the outer clock mode wins.
             struct profiling_session {
               bool owned;
               profiling_session()
                   : owned(!telemetry::profile::profiler::global().enabled()) {
                 if (owned) {
                   telemetry::profile::profiler::global().set_manual_clock(
                       false);
                   telemetry::profile::profiler::global().enable();
                 }
               }
               ~profiling_session() {
                 if (owned) telemetry::profile::profiler::global().disable();
               }
             };
             auto session = std::make_shared<profiling_session>();
             return [pool, session, n] {
               pool->run_chunks(n, [](std::size_t c) {
                 volatile std::size_t sink = 0;
                 for (std::size_t i = 0; i < 64; ++i) sink = sink + c;
               });
             };
           }});

  // Threads-sweep scaling (DESIGN.md §12): nested irregular fork-join at
  // width 4.  The task counters are deterministic (n roots plus a skewed,
  // arithmetic number of kids), so the baseline counter gate pins the
  // amount of scheduled work while the time gate watches the schedule.
  reg.add({.name = "parallel.scaling.work_stealing",
           .subsystem = "parallel",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64},
           .counter_prefix = "parallel.work_stealing.tasks",
           .deterministic_profile = false,
           .setup = [](std::size_t n) -> std::function<void()> {
             auto pool = std::make_shared<parallel::work_stealing_pool>(
                 parallel::pool_options{.workers = 4});
             return [pool, n] { nested_irregular(*pool, n); };
           }});

  // Echo wave (PIF) on a ring under the deterministic simulator: two
  // messages per edge, and a ring has n edges.
  reg.add({.name = "distributed.sim_transport",
           .subsystem = "distributed",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "distributed.network.messages",
           .setup = [](std::size_t n) -> std::function<void()> {
             return [n] {
               distributed::sim_transport net(
                   {.nodes = n, .topo = distributed::topology::ring});
               net.spawn(distributed::echo_wave(0));
               (void)net.run();
             };
           }});

  // The same echo wave with the health observatory live: every send pays
  // the node -> health-slot mapping of its tally, and every round the
  // O(health shards) end_round over the summed slots.  Same declared bound, same
  // deterministic message counters; the health_overhead gate below
  // compares the two sweeps and trips when observation costs more than
  // its budget.
  reg.add({.name = "distributed.sim_transport.health",
           .subsystem = "distributed",
           .declared = core::big_o::n(),
           .sizes = {8, 16, 32, 64, 128},
           .counter_prefix = "distributed.network.messages",
           .setup = [](std::size_t n) -> std::function<void()> {
             // RAII health session, mirroring profiling_session: enable on
             // entry unless an outer session already owns the observatory.
             struct health_session {
               bool owned;
               health_session()
                   : owned(!telemetry::health::observatory::global()
                                .enabled()) {
                 if (owned) telemetry::health::observatory::global().enable();
               }
               ~health_session() {
                 if (owned) {
                   telemetry::health::observatory::global().disable();
                   telemetry::health::observatory::global().reset();
                 }
               }
             };
             auto session = std::make_shared<health_session>();
             return [session, n] {
               distributed::sim_transport net(
                   {.nodes = n, .topo = distributed::topology::ring});
               net.spawn(distributed::echo_wave(0));
               (void)net.run();
             };
           }});

  // The same wave on a complete topology via the parallel backend:
  // message count is edge count, i.e. quadratic in nodes.
  reg.add({.name = "distributed.parallel_transport",
           .subsystem = "distributed",
           .declared = core::big_o::power("n", 2, 0),
           .sizes = {4, 8, 16, 32},
           .counter_prefix = "distributed.network.messages",
           .setup = [](std::size_t n) -> std::function<void()> {
             return [n] {
               distributed::parallel_transport net(
                   {.nodes = n,
                    .topo = distributed::topology::complete,
                    .workers = 2});
               net.spawn(distributed::echo_wave(0));
               (void)net.run();
             };
           }});

  // Node-count scaling of the CSR-topology simulator (DESIGN.md §13): a
  // bounded two-round heartbeat run over a ring, swept 1k -> 1M nodes.
  // Messages are exactly linear in n (two beats per node per round), so
  // the baseline counter gate pins the per-node message cost while the
  // fit enforces that a full construct-spawn-run cycle stays O(n) — a
  // reintroduced per-node copy or an O(n^2) routing scan shows up as a
  // violated verdict or a tripped time gate at the top of the sweep.
  {
    std::vector<std::size_t> sizes = {1'000, 10'000, 100'000, 1'000'000};
    if (quick)
      std::erase_if(sizes, [](std::size_t n) { return n > kQuickScalingCap; });
    reg.add({.name = "distributed.scaling",
             .subsystem = "distributed",
             .declared = core::big_o::n(),
             .sizes = std::move(sizes),
             .counter_prefix = "distributed.network.messages",
             .setup = [](std::size_t n) -> std::function<void()> {
               return [n] {
                 distributed::sim_transport net(
                     {.nodes = n, .topo = distributed::topology::ring});
                 net.spawn(distributed::heartbeat_detector(2));
                 (void)net.run(2);
               };
             }});
  }

  // BFS over a ring: O(V + E) = O(n) relaxations.
  reg.add({.name = "graph.bfs",
           .subsystem = "graph",
           .declared = core::big_o::n(),
           .sizes = {256, 512, 1024, 2048, 4096},
           .counter_prefix = "graph.bfs.operations",
           .setup = [](std::size_t n) -> std::function<void()> {
             auto g = std::make_shared<graph::adjacency_list<double>>(n);
             for (std::size_t i = 0; i < n; ++i)
               g->add_edge(i, (i + 1) % n, 1.0);
             return [g] { (void)graph::instrumented::bfs_distances(*g, 0); };
           }});

  return reg;
}

// --- CLI --------------------------------------------------------------------

struct options {
  std::string out = "BENCH_perf.json";
  std::string baseline;
  std::string plant;
  std::string profile_out = "PROF_perf.json";
  double time_tolerance = 4.0;
  bool gate_time = true;
  bool quick = false;
  bool list = false;
  bool profile = false;
  bool self_check_diff = false;
};

bool parse_args(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--out") {
      const char* v = next();
      if (!v) return false;
      o.out = v;
    } else if (a == "--baseline") {
      const char* v = next();
      if (!v) return false;
      o.baseline = v;
    } else if (a == "--plant-regression") {
      const char* v = next();
      if (!v) return false;
      o.plant = v;
    } else if (a == "--time-tolerance") {
      const char* v = next();
      if (!v) return false;
      o.time_tolerance = std::stod(v);
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--profile-out") {
      const char* v = next();
      if (!v) return false;
      o.profile_out = v;
    } else if (a == "--self-check-diff") {
      o.self_check_diff = true;
    } else if (a == "--no-gate-time") {
      o.gate_time = false;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--list") {
      o.list = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  return true;
}

// --- overhead gates ---------------------------------------------------------

// One row per observer whose cost is gated: its instrumented sweep must
// stay within a 10% wall-time tax of the bare twin.  The live sampler and
// the profiler's probes are priced on the work-stealing pool; the health
// observatory's per-message tallies and per-round shard folds on the
// distributed engine.  Gate `name` reports as the `<name>_overhead` block,
// whose points label the two sides `bare_key` and `observed_key`.
struct overhead_gate {
  const char* bare;       ///< benchmark without the observer
  const char* observed;   ///< the same benchmark with the observer live
  double budget;          ///< max observed / bare wall-time ratio
  const char* bare_key;
  const char* observed_key;
  const char* name;
  const char* cost;       ///< failure text: "<cost> more than <budget>x"
  const char* bare_text;  ///< failure text: "... the <bare_text>"
};

constexpr overhead_gate kOverheadGates[] = {
    {"parallel.work_stealing", "parallel.work_stealing.sampled", 1.10,
     "unsampled", "sampled", "sampler",
     "background sampling costs", "unsampled work-stealing pool"},
    {"parallel.work_stealing", "parallel.work_stealing.profiled", 1.10,
     "unsampled", "sampled", "probe",
     "profiler probes cost", "bare work-stealing pool"},
    {"distributed.sim_transport", "distributed.sim_transport.health", 1.10,
     "unobserved", "observed", "health",
     "the observatory costs", "unobserved sim transport"},
};

struct overhead_verdict {
  bool present = false;  ///< both sweeps found
  bool ok = true;
  telemetry::json_value block;  ///< the report object for this gate
};

// Compares an instrumented sweep against the bare one, point
// by point.  Wall time is noisy ON BOTH SIDES, so a point counts as over
// budget only when the two bootstrap CIs separate past the budget — the
// instrumented run's CI.lo clears budget * the bare run's CI.hi (a slow
// bare sample must not manufacture headroom, and a slow instrumented
// sample must not manufacture a violation) — and the gate fails only when
// at least half the sweep points are over.  A genuine blowup (the planted
// 6x twin) separates the intervals at every point; jitter does not.
overhead_verdict gate_overhead_pair(
    const std::vector<perf::benchmark_result>& results,
    const overhead_gate& gate) {
  overhead_verdict v;
  const perf::benchmark_result* plain = nullptr;
  const perf::benchmark_result* sampled = nullptr;
  for (const auto& r : results) {
    if (r.name == gate.bare) plain = &r;
    if (r.name == gate.observed) sampled = &r;
  }
  if (!plain || !sampled || plain->sweep.size() != sampled->sweep.size())
    return v;
  v.present = true;

  using telemetry::json_number;
  v.block = telemetry::json_object();
  v.block.obj["budget_ratio"] = json_number(gate.budget);
  const std::string a_key = gate.bare_key;
  const std::string b_key = gate.observed_key;
  telemetry::json_value& pts = v.block.obj["points"] = telemetry::json_array();
  std::size_t over = 0;
  for (std::size_t i = 0; i < plain->sweep.size(); ++i) {
    const auto& p = plain->sweep[i];
    const auto& s = sampled->sweep[i];
    const double ratio =
        p.time_ns.median > 0.0 ? s.time_ns.median / p.time_ns.median : 0.0;
    const bool tripped = p.time_ns.ci.hi > 0.0 &&
                         s.time_ns.ci.lo > p.time_ns.ci.hi * gate.budget;
    if (tripped) ++over;
    telemetry::json_value pt = telemetry::json_object();
    pt.obj["n"] = json_number(p.n);
    pt.obj[a_key + "_median_ns"] = json_number(p.time_ns.median);
    pt.obj[a_key + "_ci_hi_ns"] = json_number(p.time_ns.ci.hi);
    pt.obj[b_key + "_median_ns"] = json_number(s.time_ns.median);
    pt.obj[b_key + "_ci_lo_ns"] = json_number(s.time_ns.ci.lo);
    pt.obj["ratio"] = json_number(ratio);
    pt.obj["over_budget"] = telemetry::json_bool(tripped);
    pts.arr.push_back(std::move(pt));
  }
  v.ok = over < (plain->sweep.size() + 1) / 2;
  v.block.obj["points_over_budget"] = json_number(over);
  v.block.obj["ok"] = telemetry::json_bool(v.ok);
  return v;
}

// --- deterministic profile capture ------------------------------------------

struct profile_capture {
  telemetry::profile::profile_snapshot snap;
  std::string json;    ///< cgp.prof.v1 text (byte-deterministic)
  std::string folded;  ///< flamegraph.pl collapsed stacks
};

// Runs every benchmark's workload a fixed number of times under the
// manual clock, outside the adaptive timing harness (whose calibrated
// invocation counts are wall-clock dependent and would wreck
// determinism).  Each benchmark gets a `bench.<name>` frame on the
// driver thread; worker-side probes re-root under it via the thread
// pool's shadow-path propagation.
profile_capture capture_profile(const perf::bench_registry& registry) {
  auto& prof = telemetry::profile::profiler::global();
  prof.disable();
  prof.set_manual_clock(true);
  prof.reset();
  prof.enable();
  for (const auto& def : registry.all()) {
    // Nested fork-join sweeps opt out: helping makes their manual-clock
    // attribution scheduling-dependent (see benchmark_def).
    if (!def.deterministic_profile) continue;
    const telemetry::scope_site bench_site({.frame = "bench." + def.name});
    const telemetry::scope bench_scope(bench_site);
    for (const std::size_t n : def.sizes) {
      auto workload = def.setup(n);
      for (int rep = 0; rep < 2; ++rep) workload();
    }
  }
  prof.disable();
  profile_capture cap;
  cap.snap = prof.snapshot();
  prof.set_manual_clock(false);
  cap.json = telemetry::profile::export_json(cap.snap);
  cap.folded = telemetry::profile::collapsed(cap.snap);
  return cap;
}

// The collapsed-stack artifact lands next to the profile JSON.
std::string folded_path_for(const std::string& profile_out) {
  const std::string suffix = ".json";
  if (profile_out.size() > suffix.size() &&
      profile_out.compare(profile_out.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
    return profile_out.substr(0, profile_out.size() - suffix.size()) +
           ".folded";
  return profile_out + ".folded";
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse_args(argc, argv, opt)) return 3;

  perf::bench_registry registry = build_registry(opt.quick);
  if (opt.list) {
    for (const auto& def : registry.all())
      std::cout << def.name << " (" << def.declared.to_string() << ")\n";
    return 0;
  }

  // Self-test hook: make one benchmark genuinely more expensive — the
  // workload runs 6x per invocation, so its deterministic per-iteration
  // counters (and its time) inflate 6x and the baseline gate must trip.
  if (!opt.plant.empty()) {
    perf::bench_registry planted;
    bool found = false;
    for (auto def : registry.all()) {
      if (def.name == opt.plant) {
        found = true;
        auto inner = def.setup;
        def.setup = [inner](std::size_t n) -> std::function<void()> {
          auto workload = inner(n);
          return [workload] {
            for (int i = 0; i < 6; ++i) workload();
          };
        };
      }
      planted.add(std::move(def));
    }
    if (!found) {
      std::cerr << "--plant-regression: no benchmark named " << opt.plant
                << "\n";
      return 3;
    }
    registry = std::move(planted);
  }
  if (opt.self_check_diff && opt.plant.empty()) {
    std::cerr << "--self-check-diff requires --plant-regression\n";
    return 3;
  }

  // Deterministic profile capture: two manual-clock passes over the (possibly
  // planted) registry must serialize byte-identically, and the document must
  // pass structural validation, before the artifacts are written.
  const bool want_profile = opt.profile || opt.self_check_diff;
  profile_capture cap;
  telemetry::json_value prof_doc;
  if (want_profile) {
    cap = capture_profile(registry);
    const profile_capture again = capture_profile(registry);
    if (cap.json != again.json) {
      std::cerr << "profile self-check: two manual-clock captures are not "
                   "byte-identical\n";
      return 5;
    }
    prof_doc = telemetry::parse_json(cap.json);
    const auto pv = telemetry::profile::validate_profile(prof_doc);
    if (!pv.ok) {
      std::cerr << "profile self-check: cgp.prof.v1 validation failed:\n";
      for (const auto& e : pv.errors) std::cerr << "  " << e << "\n";
      return 5;
    }
    const std::string folded_path = folded_path_for(opt.profile_out);
    for (const auto& [path, text] :
         {std::pair<const std::string&, const std::string&>{opt.profile_out,
                                                            cap.json},
          {folded_path, cap.folded}}) {
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return 3;
      }
      out << text;
      if (&text == &cap.json) out << "\n";
    }
    std::cout << "profile: " << pv.nodes << " frames over " << pv.roots
              << " roots (depth " << pv.max_depth
              << "), captured twice byte-identically -> " << opt.profile_out
              << " + " << folded_path << "\n";
    std::cout << telemetry::profile::render_hot_table(cap.snap, 10);
  }

  // Clean-vs-planted attribution: diff an un-planted capture against the
  // planted one; the planted benchmark's paths must dominate the deltas.
  if (want_profile && !opt.plant.empty()) {
    const profile_capture clean = capture_profile(build_registry(opt.quick));
    const auto diff =
        perf::profile_diff(telemetry::parse_json(clean.json), prof_doc);
    std::cout << perf::render_profile_diff(diff, 5);
    if (opt.self_check_diff) {
      const std::string needle = "bench." + opt.plant;
      bool localized = false;
      for (std::size_t i = 0; i < diff.deltas.size() && i < 5; ++i)
        if (diff.deltas[i].status == "grown" &&
            diff.deltas[i].path.find(needle) != std::string::npos)
          localized = true;
      if (!localized) {
        std::cerr << "--self-check-diff: top-5 profile deltas do not name "
                  << needle << "\n";
        return 5;
      }
      std::cout << "profile diff localizes the planted regression at "
                << needle << "\n";
      return 0;
    }
  }

  // Quick mode keeps the n-sweeps identical (counters must match the
  // baseline exactly) and only shrinks the timing batches.
  perf::timing_options topts;
  if (opt.quick) {
    topts.min_sample_ns = 200'000;
    topts.repeats = 5;
  }

  const std::uint64_t seed = check::default_seed();
  std::cout << check::seed_banner() << "\n";

  const auto results = perf::run_all(registry, topts, seed);
  const auto env = perf::env_info(perf::utc_timestamp());
  auto doc = perf::report_json(results, env);
  std::vector<overhead_verdict> overheads;
  for (const overhead_gate& gate : kOverheadGates) {
    overheads.push_back(gate_overhead_pair(results, gate));
    if (overheads.back().present)
      doc.obj[std::string(gate.name) + "_overhead"] = overheads.back().block;
  }

  {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "cannot write " << opt.out << "\n";
      return 3;
    }
    out << telemetry::dump_json(doc) << "\n";
  }

  bool fit_failed = false;
  for (const auto& r : results) {
    std::cout << r.name << ": declared " << r.declared << ", fitted n^"
              << r.fit.exponent << " on " << r.fitted_on << " -> "
              << perf::to_string(r.fit.v) << "\n";
    if (r.fit.v != perf::verdict::consistent) fit_failed = true;
  }
  std::cout << results.size() << " benchmarks -> " << opt.out << " ("
            << env.to_string() << ")\n";

  int rc = 0;
  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline);
    if (!in) {
      std::cerr << "cannot read baseline " << opt.baseline << "\n";
      return 3;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    telemetry::json_value base;
    try {
      base = telemetry::parse_json(buf.str());
    } catch (const telemetry::json_error& e) {
      std::cerr << "baseline is not valid JSON: " << e.what() << "\n";
      return 3;
    }
    // Quick mode measured a truncated distributed.scaling sweep (see
    // kQuickScalingCap); drop the same points from the baseline so the
    // comparison covers exactly what ran, instead of reporting the capped
    // points as coverage regressions.
    if (opt.quick && base.has("benchmarks") &&
        base.at("benchmarks").is(telemetry::json_value::kind::array)) {
      for (telemetry::json_value& b : base.obj["benchmarks"].arr) {
        if (!b.has("name") || b.at("name").str != "distributed.scaling")
          continue;
        const auto sweep = b.obj.find("sweep");
        if (sweep == b.obj.end()) continue;
        std::erase_if(sweep->second.arr, [](const telemetry::json_value& pt) {
          return pt.has("n") &&
                 pt.at("n").num > static_cast<double>(kQuickScalingCap);
        });
      }
    }
    const perf::gate_options gate{.counter_ratio = 1.30,
                                  .time_ratio = opt.time_tolerance,
                                  .gate_time = opt.gate_time};
    const auto regressions = perf::compare_reports(doc, base, gate);
    for (const auto& r : regressions)
      std::cerr << "REGRESSION [" << r.what << "] " << r.benchmark << ": "
                << r.detail << "\n";
    if (!regressions.empty()) rc = 1;
    else std::cout << "baseline gate: ok (" << opt.baseline << ")\n";
  }

  if (fit_failed) {
    std::cerr << "a complexity fit is not consistent with its declared "
                 "bound\n";
    rc = rc == 0 ? 2 : rc;
  }

  for (std::size_t i = 0; i < overheads.size(); ++i) {
    const overhead_gate& gate = kOverheadGates[i];
    if (!overheads[i].present) continue;
    if (overheads[i].ok) {
      std::cout << gate.name << " overhead gate: ok (budget " << gate.budget
                << "x)\n";
    } else {
      std::cerr << gate.name << " overhead gate: " << gate.cost
                << " more than " << gate.budget << "x the " << gate.bare_text
                << " at half or more sweep points\n";
      rc = rc == 0 ? 4 : rc;
    }
  }
  return rc;
}
