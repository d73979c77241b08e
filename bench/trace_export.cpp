// Trace exporter and self-check: drives one causally-linked trace through
// every propagation boundary the tracing layer covers — a PageRank-style
// synchronous distributed run (context rides the message envelope across
// ranks), a thread-pool fan-out (context is captured at submit and restored
// in the workers), an STLlint session (diagnostics become instant events
// with provenance), and a rewrite session (each derivation step becomes an
// instant event) — then writes Chrome trace-event JSON to trace.json
// (argv[1] overrides), re-parses it with the bundled JSON parser, and
// validates it.
//
// Exit status is the contract CI gates on: non-zero when the trace is
// unbalanced, orphaned, or out of parent scope, when the causal tree fails
// to span at least two ranks and two worker threads, or when events were
// dropped.  Open the written file in ui.perfetto.dev to see the tree.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "distributed/inproc_transport.hpp"
#include "distributed/parallel_transport.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/env_info.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace cgp;

// A PageRank-style value-diffusion process: every node starts with rank
// 1.0 (fixed-point micro-units), and for kRounds supersteps sends
// 0.85 * rank / degree to each neighbor and recomputes its rank as
// 0.15 + sum of received shares.  Quiesces by simply not sending.
class pagerank_process : public distributed::process {
 public:
  static constexpr std::size_t kRounds = 5;
  static constexpr long kScale = 1'000'000;

  void start(distributed::context& ctx) override {
    rank_ = kScale;
    send_shares(ctx);
  }

  void receive(distributed::context& ctx, const distributed::message& m) override {
    (void)ctx;
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

// Drives the same PageRank run on all three Transport backends under one
// parent: the sim, parallel, and inproc runs must all join the causal
// tree (the threaded backends' workers adopt the phase context, so their
// per-node spans hang off the same root).
void drive_distributed() {
  telemetry::trace::child_span span("bench.pagerank", "bench");
  {
    distributed::sim_transport net({.nodes = 8});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    const auto stats = net.run(32);
    span.arg("rounds", std::to_string(stats.rounds));
    span.arg("messages", std::to_string(stats.messages_total));
  }
  {
    distributed::parallel_transport net({.nodes = 8});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    (void)net.run(32);
  }
  {
    distributed::inproc_transport net({.nodes = 8, .workers = 2});
    net.spawn([](int) { return std::make_unique<pagerank_process>(); });
    (void)net.run(32);
  }
}

void drive_pool() {
  telemetry::trace::child_span span("bench.pool_fanout", "bench");
  parallel::work_stealing_pool pool(4);
  constexpr std::ptrdiff_t kTasks = 4;
  // All tasks rendezvous at the latch, forcing them onto distinct workers:
  // the exported trace must show task spans on at least two tids.
  std::latch rendezvous(kTasks);
  std::latch finished(kTasks);
  for (std::ptrdiff_t i = 0; i < kTasks; ++i)
    pool.submit([&rendezvous, &finished] {
      rendezvous.arrive_and_wait();
      finished.count_down();
    });
  finished.wait();
  // A blocking fan-out too, so run_chunks shows up parenting its chunks.
  pool.run_chunks(8, [](std::size_t) {});
}

void drive_stllint() {
  telemetry::trace::child_span span("bench.stllint", "bench");
  (void)stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
}

void drive_rewrite() {
  telemetry::trace::child_span span("bench.rewrite", "bench");
  rewrite::simplifier simp;
  simp.add_default_concept_rules();
  simp.enable_constant_folding();
  const std::map<std::string, std::string> types = {{"x", "int"},
                                                    {"y", "double"}};
  for (const char* src : {"(x + 0) * 1", "x + (-x)", "(y * 1.0) + 0.0",
                          "2 * 3 + x * 0"})
    (void)simp.simplify(rewrite::parse_expr(src, types));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "trace.json";
  auto& sink = telemetry::trace::sink::global();
  sink.clear();

  {
    // One root: everything below joins this causal tree.  After each
    // phase, the registry counters that phase moved are sampled as
    // Perfetto counter tracks, so the metric trajectory and the span tree
    // share one timeline.
    telemetry::trace::trace_span root("bench.trace_export", "bench");
    drive_distributed();
    telemetry::trace::sample_registry_counters("distributed.network.");
    drive_pool();
    telemetry::trace::sample_registry_counters("parallel.work_stealing.tasks");
    drive_stllint();
    telemetry::trace::sample_registry_counters("stllint.analyzer.");
    drive_rewrite();
    telemetry::trace::sample_registry_counters("rewrite.simplifier.");
  }

  const std::string json = sink.export_chrome_trace();
  {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "trace_export: cannot write " << path << "\n";
      return 2;
    }
    out << json << "\n";
  }

  // Re-parse what we wrote and validate the structure; the exporter is not
  // trusted to check itself in-memory.
  telemetry::json_value doc;
  try {
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    doc = telemetry::parse_json(text);
  } catch (const telemetry::json_error& e) {
    std::cerr << "trace_export: re-parse failed: " << e.what() << "\n";
    return 3;
  }

  // Stamp the shared environment block into otherData and rewrite the
  // file, so the uploaded trace records what produced it.
  doc.obj["otherData"].obj["environment"] =
      cgp::perf::env_info(cgp::perf::utc_timestamp()).to_json();
  {
    std::ofstream out(path, std::ios::binary);
    out << telemetry::dump_json(doc) << "\n";
  }

  const auto v = telemetry::trace::validate_chrome_trace(doc);
  std::cout << "trace_export: wrote " << path << "\n"
            << "  spans=" << v.spans << " instants=" << v.instants
            << " counters=" << v.counters << " flows=" << v.flows
            << " ranks=" << v.ranks << " threads=" << v.threads
            << " roots=" << v.roots << " traces=" << v.traces
            << " dropped=" << sink.dropped() << "\n";
  if (!v.ok) {
    std::cerr << "trace_export: INVALID trace:\n" << v.error_text();
    return 4;
  }
  if (v.traces != 1 || v.roots != 1) {
    std::cerr << "trace_export: expected one causal tree, got " << v.traces
              << " trace(s) / " << v.roots << " root(s)\n";
    return 5;
  }
  if (v.ranks < 2) {
    std::cerr << "trace_export: causal tree spans only " << v.ranks
              << " rank(s); need >= 2\n";
    return 6;
  }
  // All three Transport backends must have contributed a run span to the
  // one causal tree (the traces==1 check above already proved nothing
  // forked off into a separate trace).
  std::size_t backend_runs = 0;
  for (const auto& ev : doc.at("traceEvents").arr)
    if (ev.at("ph").str == "B" &&
        ev.at("name").str == "distributed.network.run")
      ++backend_runs;
  if (backend_runs != 3) {
    std::cerr << "trace_export: expected 3 distributed.network.run spans "
                 "(sim + parallel + inproc), got "
              << backend_runs << "\n";
    return 9;
  }
  // Worker coverage: the pool task spans specifically must land on at
  // least two distinct tids (the latch in drive_pool forces this).
  std::set<double> task_tids;
  for (const auto& ev : doc.at("traceEvents").arr)
    if (ev.at("ph").str == "B" &&
        ev.at("name").str == "parallel.work_stealing.task")
      task_tids.insert(ev.at("tid").num);
  if (task_tids.size() < 2) {
    std::cerr << "trace_export: pool task spans on " << task_tids.size()
              << " thread(s); need >= 2\n";
    return 7;
  }
  if (sink.dropped() != 0 ||
      doc.at("otherData").at("dropped_events").num != 0.0) {
    std::cerr << "trace_export: " << sink.dropped() << " events dropped\n";
    return 8;
  }
  // Every drive phase sampled its registry counters as counter tracks;
  // at least the distributed message counters must have shown up.
  if (v.counters < 4) {
    std::cerr << "trace_export: only " << v.counters
              << " counter-track sample(s); need >= 4\n";
    return 10;
  }
  std::cout << "trace_export: OK (open " << path << " in ui.perfetto.dev)\n";
  return 0;
}
