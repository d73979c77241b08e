// Ablation studies for design choices called out in DESIGN.md:
//
//  A1. STLlint loop-pass budget — Fig. 4's invalidation bug needs >= 2
//      abstract iterations (the first pass discovers the invalidation, the
//      second observes the stale use); more passes cost time without
//      finding more.
//  A2. Rewrite-rule instantiation cache — memoizing every concept rule's
//      instantiation per (type, operator) shape vs re-deriving per node.
//  A3. Constant folding on top of concept rules — extra rewrites vs cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>

#include "rewrite/engine.hpp"
#include "rewrite/eval.hpp"
#include "stllint/stllint.hpp"

namespace {

constexpr const char* kFig4 = R"(
vector<student_info> extract_fails(vector<student_info>& students) {
  vector<student_info> fail;
  vector<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      fail.push_back(*iter);
      students.erase(iter);
    } else
      ++iter;
  }
  return fail;
}
)";

void bm_lint_pass_budget(benchmark::State& state) {
  cgp::stllint::options opt;
  opt.max_loop_passes = static_cast<int>(state.range(0));
  bool detected = false;
  for (auto _ : state) {
    const auto r = cgp::stllint::lint_source(kFig4, opt);
    detected = !r.clean();
    benchmark::DoNotOptimize(r);
  }
  state.counters["detected"] = detected ? 1.0 : 0.0;
}
BENCHMARK(bm_lint_pass_budget)->Arg(1)->Arg(2)->Arg(3)->Arg(6)->Arg(12);

cgp::rewrite::expr deep_expression(int depth) {
  using E = cgp::rewrite::expr;
  E e = E::var("i", "int");
  for (int k = 0; k < depth; ++k) {
    e = E::binary_op("*", E::binary_op("+", e, E::int_lit(0)), E::int_lit(1));
    e = E::binary_op("+", e,
                     E::binary_op("+", E::var("j", "int"),
                                  E::unary_op("-", E::var("j", "int"))));
  }
  return e;
}

void bm_rewrite_cold_cache(benchmark::State& state) {
  const auto e = deep_expression(32);
  for (auto _ : state) {
    // Fresh simplifier per iteration: every node pays the registry lookup
    // + axiom instantiation.
    cgp::rewrite::simplifier s;
    s.add_default_concept_rules();
    benchmark::DoNotOptimize(s.simplify(e));
  }
}
BENCHMARK(bm_rewrite_cold_cache);

void bm_rewrite_warm_cache(benchmark::State& state) {
  const auto e = deep_expression(32);
  cgp::rewrite::simplifier s;
  s.add_default_concept_rules();
  (void)s.simplify(e);  // warm the instantiation cache
  for (auto _ : state) benchmark::DoNotOptimize(s.simplify(e));
}
BENCHMARK(bm_rewrite_warm_cache);

void bm_rewrite_without_folding(benchmark::State& state) {
  const auto e = deep_expression(16);
  cgp::rewrite::simplifier s;
  s.add_default_concept_rules();
  for (auto _ : state) benchmark::DoNotOptimize(s.simplify(e));
}
BENCHMARK(bm_rewrite_without_folding);

void bm_rewrite_with_folding(benchmark::State& state) {
  const auto e = deep_expression(16);
  cgp::rewrite::simplifier s;
  s.add_default_concept_rules();
  s.enable_constant_folding();
  for (auto _ : state) benchmark::DoNotOptimize(s.simplify(e));
}
BENCHMARK(bm_rewrite_with_folding);

void report() {
  std::printf("================================================================\n");
  std::printf("Ablations\n");
  std::printf("================================================================\n");
  std::printf("A1. STLlint loop-pass budget vs Fig. 4 detection:\n");
  for (int passes : {1, 2, 3, 6}) {
    cgp::stllint::options opt;
    opt.max_loop_passes = passes;
    const auto r = cgp::stllint::lint_source(kFig4, opt);
    std::printf("  passes=%d  detected=%s  diagnostics=%zu\n", passes,
                r.clean() ? "no " : "YES", r.diags.size());
  }
  std::printf("  (the join of the first iteration's erase-branch is what "
              "the second pass dereferences)\n");
  std::printf("\nA2/A3: see benchmark results below (cold vs warm "
              "instantiation cache; folding on/off).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
