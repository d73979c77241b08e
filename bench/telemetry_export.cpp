// Telemetry emitter: runs a representative workload through every
// instrumented subsystem, performs the empirical performance-concept
// checks, and prints the unified registry — JSON by default (one machine-
// consumable object, parseable back via telemetry::parse_json), or the
// one-line-per-metric text form with --text.
//
// This is the measurement entry point the ROADMAP's "make a hot path
// measurably faster" work items start from: run it before and after a
// change and diff the counters.
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "distributed/algorithms.hpp"
#include "distributed/network.hpp"
#include "graph/instrumented.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "perf/env_info.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "sequences/instrumented.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/complexity_check.hpp"

namespace {

using namespace cgp;

std::vector<int> random_ints(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 1 << 30);
  std::vector<int> v(n);
  for (int& x : v) x = dist(rng);
  return v;
}

void drive_parallel() {
  parallel::work_stealing_pool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 8; ++round)
    pool.run_chunks(32, [&sum](std::size_t c) {
      long local = 0;
      for (std::size_t i = 0; i < 1000; ++i)
        local += static_cast<long>(i * (c + 1));
      sum += local;
    });
}

void drive_distributed() {
  for (const std::size_t n : {16, 32, 64}) {
    distributed::sim_transport net({.nodes = n});
    net.spawn(distributed::lcr_leader_election());
    (void)net.run();
  }
}

void drive_rewrite() {
  rewrite::simplifier simp;
  simp.add_default_concept_rules();
  simp.enable_constant_folding();
  const std::map<std::string, std::string> types = {{"x", "int"},
                                                    {"y", "double"}};
  for (const char* src : {"(x + 0) * 1", "x + (-x)", "(y * 1.0) + 0.0",
                          "2 * 3 + x * 0", "-(-x) + 0"})
    (void)simp.simplify(rewrite::parse_expr(src, types));
}

void drive_stllint() {
  (void)stllint::lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
  (void)stllint::lint_source(R"(
void g(vector<int>& v) {
  int i = 0;
  while (i < 10) {
    v.push_back(i);
    i = i + 1;
  }
}
)");
}

void drive_sequences_and_graph() {
  const std::vector<std::size_t> sizes = {512, 1024, 2048, 4096, 8192};
  const core::big_o nlogn = core::big_o::power("n", 1, 1);

  // Empirical check of the sort's declared ComplexityO(n log n).
  (void)telemetry::check_scaling("sequences.sort.comparisons", sizes, nlogn,
                                 [](std::size_t n) {
                                   auto v = random_ints(
                                       n, static_cast<std::uint32_t>(n));
                                   return sequences::instrumented::sort(
                                       v.begin(), v.end());
                                 });
  // BFS on rings: O(V + E) = O(n).
  (void)telemetry::check_scaling(
      "graph.bfs.operations", {256, 512, 1024, 2048}, core::big_o::n(),
      [](std::size_t n) {
        graph::adjacency_list<double> g(n);
        for (std::size_t i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n, 1.0);
        return graph::instrumented::bfs_distances(g, 0).second;
      });
  // Kruskal on random weights: O(E log E).
  graph::adjacency_list<double> g(64);
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> w(0.0, 1.0);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = i + 1; j < 64; j += 7) g.add_edge(i, j, w(rng));
  (void)graph::instrumented::kruskal_mst(g);
}

}  // namespace

int main(int argc, char** argv) {
  const bool text =
      argc > 1 && (std::strcmp(argv[1], "--text") == 0 ||
                   std::strcmp(argv[1], "-t") == 0);

  drive_parallel();
  drive_distributed();
  drive_rewrite();
  drive_stllint();
  drive_sequences_and_graph();

  auto& reg = telemetry::registry::global();
  const auto env = perf::env_info(perf::utc_timestamp());
  if (text) {
    // One header line, then the familiar line-per-metric form.
    std::cout << "# " << env.to_string() << "\n" << reg.export_text() << "\n";
  } else {
    // Wrap the registry with the shared environment block so the emitted
    // document records what produced it (same shape as BENCH_perf.json).
    std::cout << "{\"environment\":" << telemetry::dump_json(env.to_json())
              << ",\"telemetry\":" << reg.export_json() << "}\n";
  }

  // Exit non-zero when any recorded performance-concept check failed, so
  // CI can gate on "the measured complexity still matches the declared
  // concepts".
  for (const auto& report : reg.check_reports())
    if (!report.ok) {
      std::cerr << report.to_string() << "\n";
      return 1;
    }
  return 0;
}
