// Observability gates: one program, one subcommand per exported
// document, each exiting non-zero when its document fails a check.
//
//   obs_export registry
//       Drives every instrumented subsystem and prints the telemetry
//       registry wrapped with the environment block as JSON.  Fails when
//       the printed document does not re-parse.
//       Declared complexities are fitted by perf_report, not here.
//   obs_export trace [--out trace.json]
//       Grows one causal tree across PageRank on all three Transport
//       backends, a pool fan-out, STLlint and the rewriter, and writes it
//       as Chrome trace-event JSON (open it in ui.perfetto.dev).  Fails
//       when the trace is unbalanced, orphaned or out of parent scope,
//       spans fewer than two ranks, three backend runs or two pool
//       workers, drops events, or carries fewer than four counter samples.
//   obs_export live [--out live.json] [--period-ms N] [--no-stall]
//       Sustained load under the background sampler with a planted
//       pool-worker stall the watchdog must catch within 3 sample periods;
//       validates the Prometheus text, the cgp.live.v1 series and the
//       flight-recorder dump.
//   obs_export health [--out health.json] [--no-anomaly]
//       SWIM gossip under churn on all three backends with a planted hot
//       shard and a planted stalled shard: every backend's SLO verdicts
//       must name both, two passes must export identical bytes, the
//       backends' roll-ups must agree, and the sampled exemplars must land
//       in a valid trace.
//
// --no-stall and --no-anomaly plant nothing, so the detection requirement
// fails by construction.  ctest wraps them in WILL_FAIL twins, proving both
// that the gate can fail and that a healthy run raises no false verdict.
//
// Every written document takes the same path: write, re-parse the file
// (the exporter is not trusted to check itself in memory), stamp the
// perf::env_info block, rewrite, validate.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "graph/instrumented.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/env_info.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "sequences/instrumented.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/health.hpp"
#include "telemetry/live.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/watchdog.hpp"

namespace {

using namespace cgp;
using telemetry::json_value;
namespace trace = telemetry::trace;
namespace live = telemetry::live;
namespace health = telemetry::health;

constexpr const char* kUsage =
    "usage: obs_export registry|trace|live|health [--out PATH]\n"
    "                  [--period-ms N] [--no-stall] [--no-anomaly]\n";

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// A failed check: main prints `what` and exits with `rc`.
struct gate_failure {
  int rc;
  std::string what;
};

std::string g_tag = "obs_export";  ///< "obs_export <subcommand>"

std::ostream& say() { return std::cout << g_tag << ": "; }
std::ostream& complain() { return std::cerr << g_tag << ": "; }

struct options {
  std::string command;
  std::string out;                ///< document path; default <command>.json
  std::uint64_t period_ms = 40;   ///< live: sampling period
  bool plant_stall = true;        ///< live: cleared by --no-stall
  bool plant_anomaly = true;      ///< health: cleared by --no-anomaly
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!(out << text << "\n")) throw gate_failure{2, "cannot write " + path};
}

json_value parse_or_fail(const std::string& text, int rc,
                         const std::string& what) {
  try {
    return telemetry::parse_json(text);
  } catch (const telemetry::json_error& e) {
    throw gate_failure{rc, what + " failed: " + e.what()};
  }
}

/// Writes `json` to `path`, re-parses the file, stamps the environment
/// block (under `env_parent` when given, else at the root), rewrites the
/// file so the artifact records what produced it, and validates the
/// stamped document.  Fails the gate with 2 when the file cannot be
/// written and 3 when it does not re-parse.
template <class Validate>
auto export_document(const std::string& json, const std::string& path,
                     const char* env_parent, Validate validate) {
  write_file(path, json);
  std::ifstream in(path, std::ios::binary);
  json_value doc = parse_or_fail(
      std::string(std::istreambuf_iterator<char>(in), {}), 3, "re-parse");
  json_value& holder = env_parent != nullptr ? doc.obj[env_parent] : doc;
  holder.obj["environment"] = perf::env_info(perf::utc_timestamp()).to_json();
  write_file(path, telemetry::dump_json(doc));
  auto v = validate(doc);
  return std::pair{std::move(doc), std::move(v)};
}

// ---------------------------------------------------------------------------
// Shared load
// ---------------------------------------------------------------------------

/// PageRank-style value diffusion: every node starts at rank 1.0
/// (fixed-point micro-units) and for `rounds` supersteps sends
/// 0.85 * rank / degree to each neighbor, then recomputes its rank as
/// 0.15 + the shares received.  Quiesces by not sending.
class pagerank_process : public distributed::process {
 public:
  static constexpr long kScale = 1'000'000;

  explicit pagerank_process(std::size_t rounds) : rounds_(rounds) {}

  void start(distributed::context& ctx) override { send_shares(ctx); }

  void receive(distributed::context&, const distributed::message& m) override {
    acc_ += m.payload.at(0);
  }

  void on_round(distributed::context& ctx) override {
    if (done_) return;
    rank_ = kScale * 15 / 100 + acc_;
    acc_ = 0;
    if (ctx.round() < rounds_) {
      send_shares(ctx);
    } else {
      ctx.decide("pagerank", rank_);
      done_ = true;
    }
  }

 private:
  void send_shares(distributed::context& ctx) {
    const auto& nbrs = ctx.neighbors();
    if (nbrs.empty()) return;
    const long share = rank_ * 85 / 100 / static_cast<long>(nbrs.size());
    for (int n : nbrs) ctx.send(n, "share", {share});
    ctx.charge(nbrs.size());
  }

  std::size_t rounds_;
  long rank_ = kScale;
  long acc_ = 0;
  bool done_ = false;
};

/// One 8-node PageRank run per Transport backend under a `bench.pagerank`
/// span.  When traced, the threaded backends' workers adopt the phase
/// context, so every run joins the caller's causal tree; under the
/// sampler, each backend streams its own `distributed.network.runs.<b>`.
void drive_pagerank(std::size_t rounds) {
  static const telemetry::scope_site kPhase(
      {.trace = "bench.pagerank", .cat = "bench"});
  telemetry::scope span(kPhase);
  const auto factory = [rounds](int) {
    return std::make_unique<pagerank_process>(rounds);
  };
  {
    distributed::sim_transport net({.nodes = 8});
    net.spawn(factory);
    const auto stats = net.run(32);
    span.arg("rounds", std::to_string(stats.rounds));
    span.arg("messages", std::to_string(stats.messages_total));
  }
  {
    distributed::parallel_transport net({.nodes = 8});
    net.spawn(factory);
    (void)net.run(32);
  }
  {
    distributed::inproc_transport net({.nodes = 8, .workers = 2});
    net.spawn(factory);
    (void)net.run(32);
  }
}

/// The mixed STLlint / rewrite / pool load every subcommand drives.  Each
/// phase runs under a `bench.*` span and then samples the registry
/// counters it moved as counter tracks (both no-ops when untraced).
class mixed_load {
 public:
  mixed_load() {
    simp_.add_default_concept_rules();
    simp_.enable_constant_folding();
  }

  [[nodiscard]] parallel::work_stealing_pool& pool() { return pool_; }

  void run() {
    {
      static const telemetry::scope_site kPhase(
          {.trace = "bench.stllint", .cat = "bench"});
      const telemetry::scope span(kPhase);
      (void)stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
    }
    trace::sample_registry_counters("stllint.analyzer.");
    {
      static const telemetry::scope_site kPhase(
          {.trace = "bench.rewrite", .cat = "bench"});
      const telemetry::scope span(kPhase);
      const std::map<std::string, std::string> types = {{"x", "int"},
                                                        {"y", "double"}};
      for (const char* src : {"(x + 0) * 1", "x + (-x)", "(y * 1.0) + 0.0",
                              "2 * 3 + x * 0", "-(-x) + 0"})
        (void)simp_.simplify(rewrite::parse_expr(src, types));
    }
    trace::sample_registry_counters("rewrite.simplifier.");
    {
      static const telemetry::scope_site kPhase(
          {.trace = "bench.pool_fanout", .cat = "bench"});
      const telemetry::scope span(kPhase);
      // Two tasks that rendezvous at a latch must run on distinct
      // workers, so a traced run shows task spans on at least two tids.
      std::latch rendezvous(2);
      std::latch finished(2);
      for (int i = 0; i < 2; ++i)
        pool_.submit([&rendezvous, &finished] {
          rendezvous.arrive_and_wait();
          finished.count_down();
        });
      finished.wait();
      // A blocking fan-out too, so run_chunks shows up parenting chunks.
      pool_.run_chunks(8, [](std::size_t) {});
    }
    trace::sample_registry_counters("parallel.work_stealing.tasks");
  }

 private:
  parallel::work_stealing_pool pool_{4};
  rewrite::simplifier simp_;
};

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

/// The sequential algorithm subsystems, so the registry document carries
/// their counters.  perf_report fits these counters against the declared
/// bounds; this gate only exports them.
void drive_algorithms() {
  std::mt19937 sort_rng(4096);
  std::vector<int> v(4096);
  for (int& x : v) x = static_cast<int>(sort_rng() >> 2);
  (void)sequences::instrumented::sort(v.begin(), v.end());
  // Kruskal on random weights: O(E log E).
  graph::adjacency_list<double> g(64);
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = i + 1; j < 64; j += 7) g.add_edge(i, j, w(rng));
  (void)graph::instrumented::kruskal_mst(g);
}

int run_registry(const options&) {
  drive_pagerank(5);
  mixed_load().run();
  drive_algorithms();

  auto& reg = telemetry::registry::global();
  const auto env = perf::env_info(perf::utc_timestamp());
  const std::string json = "{\"environment\":" +
                           telemetry::dump_json(env.to_json()) +
                           ",\"telemetry\":" + reg.export_json() + "}";
  (void)parse_or_fail(json, 3, "re-parse");
  std::cout << json << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

int run_trace(const options& o) {
  auto& sink = trace::sink::global();
  sink.clear();
  {
    // One root: everything below joins this causal tree.  The load is a
    // temporary so its pool joins, closing every task span, before export.
    trace::trace_span root("bench.trace_gate", "bench");
    drive_pagerank(5);
    trace::sample_registry_counters("distributed.network.");
    mixed_load().run();
  }

  const auto [doc, v] = export_document(sink.export_chrome_trace(), o.out,
                                        "otherData",
                                        trace::validate_chrome_trace);
  say() << "wrote " << o.out << "\n"
        << "  spans=" << v.spans << " instants=" << v.instants
        << " counters=" << v.counters << " flows=" << v.flows
        << " ranks=" << v.ranks << " threads=" << v.threads
        << " roots=" << v.roots << " traces=" << v.traces
        << " dropped=" << sink.dropped() << "\n";
  if (!v.ok) throw gate_failure{4, "INVALID trace:\n" + v.error_text()};
  if (v.traces != 1 || v.roots != 1)
    throw gate_failure{5, "expected one causal tree, got " +
                              std::to_string(v.traces) + " trace(s) / " +
                              std::to_string(v.roots) + " root(s)"};
  if (v.ranks < 2)
    throw gate_failure{6, "causal tree spans only " +
                              std::to_string(v.ranks) + " rank(s); need >= 2"};
  // All three backends must have contributed a run span to the one tree,
  // and the pool task spans specifically must land on >= 2 tids.
  std::size_t backend_runs = 0;
  std::set<double> task_tids;
  for (const auto& ev : doc.at("traceEvents").arr) {
    if (ev.at("ph").str != "B") continue;
    if (ev.at("name").str == "distributed.network.run") ++backend_runs;
    if (ev.at("name").str == "parallel.work_stealing.task")
      task_tids.insert(ev.at("tid").num);
  }
  if (backend_runs != 3)
    throw gate_failure{9, "expected 3 distributed.network.run spans "
                          "(sim + parallel + inproc), got " +
                              std::to_string(backend_runs)};
  if (task_tids.size() < 2)
    throw gate_failure{7, "pool task spans on " +
                              std::to_string(task_tids.size()) +
                              " thread(s); need >= 2"};
  if (sink.dropped() != 0 ||
      doc.at("otherData").at("dropped_events").num != 0.0)
    throw gate_failure{8, std::to_string(sink.dropped()) + " events dropped"};
  if (v.counters < 4)
    throw gate_failure{10, "only " + std::to_string(v.counters) +
                               " counter-track sample(s); need >= 4"};
  say() << "OK (open " << o.out << " in ui.perfetto.dev)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// live
// ---------------------------------------------------------------------------

int run_live(const options& o) {
  constexpr std::size_t kMissThreshold = 2;  // detect within 3 periods
  constexpr std::size_t kWarmTicks = 10;     // load runs at least this long
  const std::uint64_t period_ms = o.period_ms;
  auto& wd = live::watchdog::global();
  auto& fr = live::flight_recorder::global();
  wd.reset();
  fr.clear();

  // Detection bookkeeping: the callback runs on the sampler thread at the
  // verdict tick; record which tick (samples_taken) caught it.
  std::mutex det_mu;
  std::condition_variable det_cv;
  std::size_t detections = 0;
  std::uint64_t detected_at_tick = 0;

  live::sampler sampler({.period_ms = period_ms,
                         .capacity = 512,
                         .watch = true,
                         .miss_threshold = kMissThreshold});
  wd.on_stall([&](const live::verdict& v) {
    const std::lock_guard lock(det_mu);
    ++detections;
    detected_at_tick = sampler.samples_taken();
    say() << "watchdog verdict: " << v.target << " silent " << v.value
          << "ms\n";
    det_cv.notify_all();
  });
  sampler.start();

  // Sustained load across >= 3 subsystems while the sampler streams.
  mixed_load load;
  const auto iterate = [&load] {
    drive_pagerank(4);
    load.run();
  };
  while (sampler.samples_taken() < kWarmTicks) iterate();

  int rc = 0;
  const std::uint64_t planted_tick = sampler.samples_taken();
  if (o.plant_stall) {
    // The planted fault: a task that goes silent while busy for many
    // periods.  The worker marks busy around it, so the watchdog must
    // flag the worker within kMissThreshold + 1 = 3 sample periods.
    fr.note(live::flight_entry::kind::marker, "bench.plant_stall",
            static_cast<double>(planted_tick));
    load.pool().submit([period_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms * 12));
    });
  }
  {
    // A healthy --no-stall run only needs a few quiet periods to prove
    // the negative; a planted stall gets a generous ceiling so a loaded
    // box cannot flake the gate.
    const std::uint64_t wait_periods = o.plant_stall ? 100 : 8;
    std::unique_lock lock(det_mu);
    det_cv.wait_for(lock, std::chrono::milliseconds(period_ms * wait_periods),
                    [&] { return detections > 0; });
    if (o.plant_stall && detections == 0) {
      complain() << "planted stall was NOT detected\n";
      rc = 4;
    }
    if (!o.plant_stall && detections == 0) {
      complain() << "no stall planted, none detected — failing as the "
                    "planted-stall self-check expects\n";
      rc = 4;
    }
    if (detections > 0) {
      const std::uint64_t ticks = detected_at_tick - planted_tick;
      say() << "stall detected " << ticks << " tick(s) after planting\n";
      if (ticks > kMissThreshold + 1) {
        complain() << "detection took " << ticks
                   << " sample periods; budget is " << (kMissThreshold + 1)
                   << "\n";
        rc = 5;
      }
    }
  }

  // Let the stalled worker finish, then a little more load so post-stall
  // samples exist, then freeze.
  load.pool().run_chunks(4, [](std::size_t) {});
  iterate();
  sampler.stop();
  wd.on_stall(nullptr);

  // --- artifact 1: Prometheus exposition -----------------------------------
  const std::string prom = sampler.export_prometheus();
  if (prom.find("# TYPE cgp_parallel_work_stealing_tasks_completed counter") ==
          std::string::npos ||
      prom.find("# TYPE cgp_parallel_work_stealing_queue_depth gauge") ==
          std::string::npos)
    throw gate_failure{6, "Prometheus exposition is missing expected "
                          "work-stealing pool metrics:\n" +
                              prom.substr(0, 400)};

  // --- artifact 2: the cgp.live.v1 series document --------------------------
  const auto [doc, v] = export_document(sampler.export_json(), o.out, nullptr,
                                        live::validate_live_export);
  say() << "wrote " << o.out << "\n"
        << "  samples=" << sampler.samples_taken() << " series=" << v.series
        << " points=" << v.points << " counters=" << v.counters
        << " gauges=" << v.gauges << " histograms=" << v.histograms
        << " stalls=" << v.stalls << "\n";
  if (!v.ok) throw gate_failure{7, "INVALID live document:\n" + v.error_text()};
  // >= 3 subsystems must actually be streaming, and every Transport
  // backend its own run-counter lane.
  std::set<std::string> subsystems;
  std::set<std::string> series_names;
  for (const auto& s : doc.at("series").arr) {
    const std::string& name = s.at("name").str;
    series_names.insert(name);
    if (const auto dot = name.find('.'); dot != std::string::npos)
      subsystems.insert(name.substr(0, dot));
  }
  std::size_t covered = 0;
  for (const char* want : {"parallel", "distributed", "stllint", "rewrite"})
    if (subsystems.contains(want)) ++covered;
  if (covered < 3)
    throw gate_failure{8, "only " + std::to_string(covered) +
                              " subsystem(s) streamed series; need >= 3"};
  for (const std::string backend : {"sim", "parallel", "inproc"})
    if (!series_names.contains("distributed.network.runs." + backend))
      throw gate_failure{13, "no distributed.network.runs." + backend +
                                 " series — backend lane missing"};
  if (o.plant_stall && v.stalls == 0)
    throw gate_failure{9, "exported document carries no watchdog verdict"};

  // --- artifact 3: the flight-recorder dump ---------------------------------
  const auto fv = live::validate_flight_dump(
      parse_or_fail(fr.dump_json(), 10, "flight dump re-parse"));
  say() << "flight ring entries=" << fv.entries << " spans=" << fv.spans
        << " counters=" << fv.counters << " verdicts=" << fv.verdicts
        << " markers=" << fv.markers << "\n";
  if (!fv.ok)
    throw gate_failure{11, "INVALID flight dump:\n" + fv.error_text()};
  if (fv.spans == 0 || fv.counters == 0 ||
      (o.plant_stall && fv.verdicts == 0))
    throw gate_failure{12, "flight ring is missing event kinds "
                           "(spans/counters/verdicts)"};

  if (rc == 0) say() << "OK\n";
  return rc;
}

// ---------------------------------------------------------------------------
// health
// ---------------------------------------------------------------------------

constexpr std::size_t kNodes = 192;
constexpr std::size_t kHealthShards = 16;
constexpr std::size_t kRounds = 36;
constexpr std::size_t kSuspectTimeout = 6;
constexpr std::size_t kStallRound = 6;

// The gate's explicit rule set (health.json documents it): the runs are
// fully deterministic (fixed seed), and the skew threshold sits between
// the measured uniform-ring baseline (max/mean 1.07) and the power_law
// hub shard (2.44) with wide margin to both.
std::vector<health::slo_rule> gate_rules() {
  return {
      {.kind = health::rule_kind::skew_ratio,
       .name = "shard_skew",
       .threshold = 1.8,
       .min_activity = 1024},
      {.kind = health::rule_kind::stall_budget,
       .name = "shard_stall",
       .budget = 4},
      {.kind = health::rule_kind::drop_rate,
       .name = "drop_ceiling",
       .threshold = 0.05,
       .min_activity = 1024},
      {.kind = health::rule_kind::convergence_deadline,
       .name = "gossip_convergence",
       .budget = 8,
       .metric = "distributed.gossip.unconverged"},
  };
}

distributed::net_options scenario_options(bool anomaly) {
  distributed::net_options opts;
  opts.nodes = kNodes;
  opts.topo =
      anomaly ? distributed::topology::power_law : distributed::topology::ring;
  opts.mode = distributed::timing::synchronous;
  opts.seed = 42;
  opts.workers = 4;
  opts.faults.drop = 0.02;
  opts.faults.duplicate = 0.01;
  opts.faults.churn_crash = 0.02;
  opts.faults.churn_recover = 0.2;
  opts.faults.churn_until = 10;
  return opts;
}

struct planted {
  std::size_t hub_shard = 0;    ///< health shard of the max-degree node
  std::size_t stall_shard = 0;  ///< health shard crash-stopped at round 6

  bool operator==(const planted&) const = default;
};

/// One backend's leg of the scenario.  Returns the planted shard indices
/// (identical across backends: the topology is a pure function of the
/// options).  `unconverged` accumulates survivor-view mismatches against
/// the runtime's ground truth for the convergence gauge.
template <distributed::Transport T>
planted run_backend(bool anomaly, std::size_t* unconverged) {
  T net(scenario_options(anomaly));
  net.spawn(distributed::gossip_membership(kSuspectTimeout));

  planted p;
  const std::size_t width = (kNodes + kHealthShards - 1) / kHealthShards;
  std::size_t best_degree = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t deg = net.neighbors_of(static_cast<int>(i)).size();
    if (deg > best_degree) {
      best_degree = deg;
      p.hub_shard = i / width;
    }
  }
  // Stall a shard far from the hub (the hub's shard must stay hot, not
  // silent).  Crashes are permanent, unlike churn.
  p.stall_shard = (p.hub_shard + kHealthShards / 2) % kHealthShards;
  if (anomaly) {
    const std::size_t lo = p.stall_shard * width;
    const std::size_t hi = std::min(kNodes, lo + width);
    for (std::size_t i = lo; i < hi; ++i)
      net.crash(static_cast<int>(i), kStallRound);
  }

  (void)net.run(kRounds);

  // Ground-truth comparison for the convergence-deadline gauge: survivors
  // still counting a dead node as a member (or missing a live one).
  const int n = static_cast<int>(net.node_count());
  for (int i = 0; i < n; ++i) {
    if (net.is_down(i)) continue;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto view = net.decision(i, "member:" + std::to_string(j));
      const bool thinks_alive = view.has_value() && *view == 1;
      if (net.is_down(j) ? thinks_alive : !thinks_alive) ++*unconverged;
    }
  }
  return p;
}

/// Runs the full three-backend scenario against a freshly reset
/// observatory and returns (export bytes, planted shards).  Called twice:
/// the byte-identity check is the manual-clock determinism contract.
std::pair<std::string, planted> run_scenario(bool anomaly) {
  auto& obs = health::observatory::global();
  obs.reset();
  std::size_t unconverged = 0;
  const planted p1 =
      run_backend<distributed::sim_transport>(anomaly, &unconverged);
  (void)obs.tick(1000);
  std::size_t ignored = 0;
  const planted p2 =
      run_backend<distributed::parallel_transport>(anomaly, &ignored);
  (void)obs.tick(2000);
  const planted p3 =
      run_backend<distributed::inproc_transport>(anomaly, &ignored);
  telemetry::registry::global()
      .get_gauge("distributed.gossip.unconverged")
      .set(static_cast<std::int64_t>(unconverged));
  // Run the tick count past the convergence deadline (budget 8) so the
  // deadline rule is evaluated and not vacuously skipped.
  for (std::uint64_t t = 3; t <= 10; ++t) (void)obs.tick(1000 * t);
  if (p1 != p2 || p1 != p3)
    throw gate_failure{6, "planted shards disagree across backends"};
  return {obs.export_json(), p1};
}

int run_health(const options& o) {
  health::health_options hopts;
  hopts.shards = kHealthShards;
  hopts.reservoir_k = 8;
  hopts.seed = 42;
  hopts.manual_clock = true;
  hopts.rules = gate_rules();
  health::observatory::global().enable(hopts);

  // Two complete passes; byte-identical exports are the determinism
  // contract the validator cannot check from one run.
  const std::string export1 = run_scenario(o.plant_anomaly).first;
  const auto [export2, p] = run_scenario(o.plant_anomaly);
  if (export1 != export2)
    throw gate_failure{5, "manual-clock exports differ between two "
                          "identical passes (" +
                              std::to_string(export1.size()) + " vs " +
                              std::to_string(export2.size()) + " bytes)"};

  // Written before the remaining checks, so a failing gate still leaves
  // the evidence.
  const auto [doc, v] = export_document(export2, o.out, nullptr,
                                        health::validate_health_export);
  say() << "backends=" << v.backends << " shard_rows=" << v.shards
        << " exemplars=" << v.exemplars << " verdicts=" << v.verdicts
        << " bytes=" << export2.size() << "\n";
  say() << "wrote " << o.out << "\n";
  if (!v.ok)
    throw gate_failure{7, "INVALID cgp.health.v1 document:\n" +
                              v.error_text()};

  // Cross-backend determinism: the three roll-ups must agree exactly
  // (same seed -> same fault draws -> same per-shard traffic).
  const auto& backends = doc.at("backends").arr;
  if (backends.size() != 3)
    throw gate_failure{6, "expected 3 backends, got " +
                              std::to_string(backends.size())};
  for (const char* field : {"routed", "delivered", "dropped", "duplicated",
                            "last_active_round", "rounds_active"}) {
    const auto want =
        static_cast<std::uint64_t>(backends[0].at("rollup").at(field).num);
    for (const auto& b : backends) {
      const auto got = static_cast<std::uint64_t>(b.at("rollup").at(field).num);
      if (got != want)
        throw gate_failure{
            6, "backend '" + b.at("name").str + "' rollup." + field + " = " +
                   std::to_string(got) + ", '" + backends[0].at("name").str +
                   "' says " + std::to_string(want) + " — backends diverged"};
    }
  }

  // The gate itself: every backend must NAME both planted shards.
  int rc = 0;
  const char* expectation =
      o.plant_anomaly ? "" : " — failing as the no-anomaly self-check expects";
  for (const std::string backend : {"sim", "parallel", "inproc"}) {
    const std::string prefix = "distributed." + backend + ".shard";
    const std::string hub = prefix + std::to_string(p.hub_shard);
    const std::string stalled = prefix + std::to_string(p.stall_shard);
    bool hub_named = false, stall_named = false;
    for (const auto& jv : doc.at("verdicts").arr) {
      const std::string& rule = jv.at("rule").str;
      const std::string& target = jv.at("target").str;
      if (rule == "shard_skew" && target == hub) hub_named = true;
      if (rule == "shard_stall" && target == stalled) stall_named = true;
    }
    if (!hub_named) {
      complain() << "no shard_skew verdict names " << hub << expectation
                 << "\n";
      rc = 4;
    }
    if (!stall_named) {
      complain() << "no shard_stall verdict names " << stalled << expectation
                 << "\n";
      rc = 4;
    }
  }

  // Reservoir exemplars must land inside a valid Perfetto tree.  The full
  // scenario above overflows the trace ring by design (tracing is not the
  // observability layer for a 36-round three-backend soak — that is the
  // observatory's whole point), so the exemplar contract is checked on a
  // small dedicated traced run instead.
  auto& sink = trace::sink::global();
  sink.clear();
  {
    trace::trace_span root("bench.health_exemplars", "bench");
    distributed::net_options small;
    small.nodes = 48;
    small.topo = distributed::topology::ring;
    small.seed = 42;
    distributed::sim_transport net(small);
    net.spawn(distributed::gossip_membership(kSuspectTimeout));
    (void)net.run(8);
  }
  const json_value trace_doc =
      parse_or_fail(sink.export_chrome_trace(), 8, "trace re-parse");
  const auto tv = trace::validate_chrome_trace(trace_doc);
  std::size_t exemplar_instants = 0;
  for (const auto& ev : trace_doc.at("traceEvents").arr)
    if (ev.has("name") && ev.at("name").str == "health.exemplar")
      ++exemplar_instants;
  say() << "trace spans=" << tv.spans << " instants=" << tv.instants
        << " health.exemplar=" << exemplar_instants << "\n";
  if (!tv.ok) throw gate_failure{8, "INVALID trace:\n" + tv.error_text()};
  if (exemplar_instants == 0)
    throw gate_failure{8, "no health.exemplar instants in the trace"};
  if (rc == 0) say() << "OK\n";
  return rc;
}

// ---------------------------------------------------------------------------

const std::map<std::string, int (*)(const options&)> kCommands = {
    {"registry", run_registry},
    {"trace", run_trace},
    {"live", run_live},
    {"health", run_health},
};

options parse_args(int argc, char** argv) {
  options o;
  if (argc < 2 || !kCommands.contains(argv[1]))
    throw gate_failure{64, kUsage};
  o.command = argv[1];
  o.out = o.command + ".json";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--out" && has_value)
      o.out = argv[++i];
    else if (arg == "--period-ms" && has_value)
      o.period_ms = std::stoull(argv[++i]);
    else if (arg == "--no-stall")
      o.plant_stall = false;
    else if (arg == "--no-anomaly")
      o.plant_anomaly = false;
    else
      throw gate_failure{64, "unknown argument '" + arg + "'\n" + kUsage};
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options o = parse_args(argc, argv);
    g_tag += " " + o.command;
    // The trace, live and health gates check what the sink, the sampler
    // and the observatory recorded; with telemetry compiled out there is
    // nothing to validate (and the live warm-up would spin forever on a
    // sample count that never advances).  The registry still prints.
    if (!telemetry::kEnabled && o.command != "registry") {
      say() << "CGP_TELEMETRY_DISABLED build; nothing to validate\n";
      return 0;
    }
    return kCommands.at(o.command)(o);
  } catch (const gate_failure& f) {
    complain() << f.what << (f.what.ends_with('\n') ? "" : "\n");
    return f.rc;
  } catch (const std::exception& e) {
    complain() << e.what() << "\n";
    return 1;
  }
}
