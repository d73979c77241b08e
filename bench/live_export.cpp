// Live observability end-to-end driver and self-check: runs PageRank on
// the parallel transport, STLlint sessions, rewrite sessions, and a
// work-stealing pool fan-out under sustained load while the background
// sampler streams time-series snapshots of the telemetry registry; plants
// a pool-worker stall (a task that goes silent while busy) and requires the
// watchdog to catch it within 3 sample periods; then exports and
// re-validates all three artifacts — Prometheus text exposition, the
// cgp.live.v1 series document (written to live.json; argv[1] or --out
// overrides), and the flight-recorder dump.
//
// Exit status is the contract CI gates on: non-zero when the planted
// stall goes undetected (or is detected late), when fewer than three
// subsystems produced series, or when any export fails to parse or
// validate.  With --no-stall nothing is planted and the detection
// requirement then fails by construction — CI wraps that invocation in a
// WILL_FAIL test, which simultaneously proves the gate can fail and that
// the watchdog does not false-positive on a healthy run.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "distributed/inproc_transport.hpp"
#include "distributed/parallel_transport.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/env_info.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/live.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/watchdog.hpp"

namespace {

using namespace cgp;

constexpr std::size_t kMissThreshold = 2;  // detect within 3 periods
constexpr std::size_t kWarmTicks = 10;     // load runs for at least this many

class pagerank_process : public distributed::process {
 public:
  static constexpr std::size_t kRounds = 4;
  static constexpr long kScale = 1'000'000;

  void start(distributed::context& ctx) override {
    rank_ = kScale;
    send_shares(ctx);
  }
  void receive(distributed::context&, const distributed::message& m) override {
    acc_ += m.payload.at(0);
  }
  void on_round(distributed::context& ctx) override {
    if (done_) return;
    rank_ = kScale * 15 / 100 + acc_;
    acc_ = 0;
    if (ctx.round() < kRounds) {
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
  long rank_ = kScale;
  long acc_ = 0;
  bool done_ = false;
};

void drive_one_load_iteration(parallel::work_stealing_pool& pool,
                              rewrite::simplifier& simp) {
  // One run per Transport backend, so the sampler streams a
  // `distributed.network.runs.<backend>` lane for each of the three.
  {
    distributed::parallel_transport net({.nodes = 8});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    (void)net.run(16);
  }
  {
    distributed::sim_transport net({.nodes = 8});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    (void)net.run(16);
  }
  {
    distributed::inproc_transport net({.nodes = 8, .workers = 2});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    (void)net.run(16);
  }
  (void)stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
  const std::map<std::string, std::string> types = {{"x", "int"}};
  (void)simp.simplify(rewrite::parse_expr("(x + 0) * 1 + x * 0", types));
  pool.run_chunks(8, [](std::size_t) {});
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  // With telemetry compiled out there is nothing to sample, no heartbeats,
  // and samples_taken() never advances — the warm-up loop below would spin
  // forever.  A disabled build has nothing to validate; say so and pass.
  if constexpr (!telemetry::kEnabled) {
    std::cout << "live_export: CGP_TELEMETRY_DISABLED build; live "
                 "observability is compiled out, nothing to validate\n";
    return 0;
  }
  std::string path = "live.json";
  bool plant_stall = true;
  // Sampling period: instrumented builds (tsan) pass a longer one so a
  // slow-but-healthy superstep can't masquerade as a stall.
  std::uint64_t period_ms = 40;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-stall")
      plant_stall = false;
    else if (arg == "--out" && i + 1 < argc)
      path = argv[++i];
    else if (arg == "--period-ms" && i + 1 < argc)
      period_ms = static_cast<std::uint64_t>(std::stoull(argv[++i]));
    else if (arg[0] != '-')
      path = arg;
  }

  auto& wd = telemetry::live::watchdog::global();
  auto& fr = telemetry::live::flight_recorder::global();
  wd.reset();
  fr.clear();

  // Detection bookkeeping: the callback runs on the sampler thread at the
  // verdict tick; record which tick (samples_taken) caught it.
  std::mutex det_mu;
  std::condition_variable det_cv;
  std::size_t detections = 0;
  std::uint64_t detected_at_tick = 0;

  telemetry::live::sampler sampler({.period_ms = period_ms,
                                    .capacity = 512,
                                    .watch = true,
                                    .miss_threshold = kMissThreshold});
  wd.on_stall([&](const telemetry::live::stall_event& ev) {
    const std::lock_guard lock(det_mu);
    ++detections;
    detected_at_tick = sampler.samples_taken();
    std::cout << "live_export: watchdog verdict: " << ev.participant
              << " silent " << ev.silent_ms << "ms\n";
    det_cv.notify_all();
  });
  sampler.start();

  // Sustained load across >= 3 subsystems while the sampler streams.
  parallel::work_stealing_pool pool(3);
  rewrite::simplifier simp;
  simp.add_default_concept_rules();
  simp.enable_constant_folding();
  while (sampler.samples_taken() < kWarmTicks)
    drive_one_load_iteration(pool, simp);

  int rc = 0;
  const std::uint64_t planted_tick = sampler.samples_taken();
  if (plant_stall) {
    // The planted fault: a task that goes silent while busy for many
    // periods.  The worker marks busy around it, so the watchdog must
    // flag the worker within kMissThreshold + 1 = 3 sample periods.
    fr.note(telemetry::live::flight_entry::kind::marker, "bench.plant_stall",
            static_cast<double>(planted_tick));
    pool.submit([period_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms * 12));
    });
  }
  {
    // A healthy --no-stall run only needs a few quiet periods to prove
    // the negative; a planted stall gets a generous ceiling so a loaded
    // box cannot flake the gate.
    const std::uint64_t wait_periods = plant_stall ? 100 : 8;
    std::unique_lock lock(det_mu);
    det_cv.wait_for(lock, std::chrono::milliseconds(period_ms * wait_periods),
                    [&] { return detections > 0; });
    if (plant_stall && detections == 0) {
      std::cerr << "live_export: planted stall was NOT detected\n";
      rc = 4;
    }
    if (!plant_stall && detections == 0) {
      std::cerr << "live_export: no stall planted, none detected — failing "
                   "as the planted-stall self-check expects\n";
      rc = 4;
    }
    if (detections > 0) {
      const std::uint64_t ticks = detected_at_tick - planted_tick;
      std::cout << "live_export: stall detected " << ticks
                << " tick(s) after planting\n";
      if (ticks > kMissThreshold + 1) {
        std::cerr << "live_export: detection took " << ticks
                  << " sample periods; budget is "
                  << (kMissThreshold + 1) << "\n";
        rc = 5;
      }
    }
  }

  // Let the stalled worker finish, then a little more load so post-stall
  // samples exist, then freeze.
  pool.run_chunks(4, [](std::size_t) {});
  drive_one_load_iteration(pool, simp);
  sampler.stop();
  wd.on_stall(nullptr);

  // --- artifact 1: Prometheus exposition -----------------------------------
  const std::string prom = sampler.export_prometheus();
  if (prom.find("# TYPE cgp_parallel_work_stealing_tasks_completed counter") ==
          std::string::npos ||
      prom.find("# TYPE cgp_parallel_work_stealing_queue_depth gauge") ==
          std::string::npos) {
    std::cerr << "live_export: Prometheus exposition is missing expected "
                 "work-stealing pool metrics:\n"
              << prom.substr(0, 400) << "\n";
    return 6;
  }

  // --- artifact 2: the cgp.live.v1 series document --------------------------
  {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "live_export: cannot write " << path << "\n";
      return 2;
    }
    out << sampler.export_json() << "\n";
  }
  telemetry::json_value doc;
  try {
    doc = telemetry::parse_json(slurp(path));
  } catch (const telemetry::json_error& e) {
    std::cerr << "live_export: re-parse failed: " << e.what() << "\n";
    return 3;
  }
  // Stamp the shared environment block and rewrite, as every exporter does.
  doc.obj["environment"] =
      perf::env_info(perf::utc_timestamp()).to_json();
  {
    std::ofstream out(path, std::ios::binary);
    out << telemetry::dump_json(doc) << "\n";
  }
  const auto v = telemetry::live::validate_live_export(doc);
  std::cout << "live_export: wrote " << path << "\n"
            << "  samples=" << sampler.samples_taken()
            << " series=" << v.series << " points=" << v.points
            << " counters=" << v.counters << " gauges=" << v.gauges
            << " histograms=" << v.histograms << " stalls=" << v.stalls
            << "\n";
  if (!v.ok) {
    std::cerr << "live_export: INVALID live document:\n" << v.error_text();
    return 7;
  }
  // >= 3 subsystems must actually be streaming.
  std::set<std::string> subsystems;
  for (const auto& s : doc.at("series").arr) {
    const std::string& name = s.at("name").str;
    const auto dot = name.find('.');
    if (dot != std::string::npos) subsystems.insert(name.substr(0, dot));
  }
  std::size_t covered = 0;
  for (const char* want : {"parallel", "distributed", "stllint", "rewrite"})
    if (subsystems.contains(want)) ++covered;
  if (covered < 3) {
    std::cerr << "live_export: only " << covered
              << " subsystem(s) streamed series; need >= 3\n";
    return 8;
  }
  // Every Transport backend must stream its own run-counter lane (the
  // load loop drives all three each iteration).
  std::set<std::string> series_names;
  for (const auto& s : doc.at("series").arr)
    series_names.insert(s.at("name").str);
  for (const char* backend : {"sim", "parallel", "inproc"}) {
    if (!series_names.contains("distributed.network.runs." +
                               std::string(backend))) {
      std::cerr << "live_export: no distributed.network.runs." << backend
                << " series — backend lane missing\n";
      return 13;
    }
  }
  if (plant_stall && v.stalls == 0) {
    std::cerr << "live_export: exported document carries no watchdog "
                 "verdict\n";
    return 9;
  }

  // --- artifact 3: the flight-recorder dump ---------------------------------
  telemetry::json_value flight;
  try {
    flight = telemetry::parse_json(fr.dump_json());
  } catch (const telemetry::json_error& e) {
    std::cerr << "live_export: flight dump re-parse failed: " << e.what()
              << "\n";
    return 10;
  }
  const auto fv = telemetry::live::validate_flight_dump(flight);
  std::cout << "live_export: flight ring entries=" << fv.entries
            << " spans=" << fv.spans << " counters=" << fv.counters
            << " verdicts=" << fv.watchdog_verdicts
            << " markers=" << fv.markers << "\n";
  if (!fv.ok) {
    std::cerr << "live_export: INVALID flight dump:\n" << fv.error_text();
    return 11;
  }
  if (fv.spans == 0 || fv.counters == 0 ||
      (plant_stall && fv.watchdog_verdicts == 0)) {
    std::cerr << "live_export: flight ring is missing event kinds "
                 "(spans/counters/verdicts)\n";
    return 12;
  }

  if (rc == 0) std::cout << "live_export: OK\n";
  return rc;
}
