// simplify_batch: the Simplicissimus rewriter (paper §3.2) as a compiler
// pass over a batch of generated expressions.
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <variant>

#include "check/expr_gen.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/batch.hpp"
#include "rewrite/eval.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace rewrite = cgp::rewrite;
using cgp::parallel::pool_options;
using cgp::parallel::work_stealing_pool;

constexpr std::size_t kExprs = 20000;
constexpr int kMaxDepth = 6;
constexpr std::size_t kGrain = 8;

struct expr_case {
  rewrite::expr input = rewrite::expr::int_lit(0);
  rewrite::environment env;
  rewrite::value known;  ///< evaluate(input, env), the known answer
};

// Int trees are kept only when their evaluation cannot overflow, so the
// known answer is defined behaviour.  The generator's int trees use
// literals, variables, unary minus and binary + - *.
std::optional<std::int64_t> checked_int(const rewrite::expr& e,
                                        const rewrite::environment& env) {
  using kind = rewrite::expr::kind;
  switch (e.node_kind()) {
    case kind::literal:
      if (const auto* v = std::get_if<std::int64_t>(&e.literal_value()))
        return *v;
      return std::nullopt;
    case kind::variable: {
      const auto it = env.find(e.symbol());
      if (it == env.end()) return std::nullopt;
      if (const auto* v = std::get_if<std::int64_t>(&it->second)) return *v;
      return std::nullopt;
    }
    case kind::unary: {
      const auto v = checked_int(e.children().at(0), env);
      if (!v || e.symbol() != "-" ||
          *v == std::numeric_limits<std::int64_t>::min())
        return std::nullopt;
      return -*v;
    }
    case kind::binary: {
      const auto a = checked_int(e.children().at(0), env);
      const auto b = checked_int(e.children().at(1), env);
      if (!a || !b) return std::nullopt;
      std::int64_t r = 0;
      bool overflow = true;
      if (e.symbol() == "+") overflow = __builtin_add_overflow(*a, *b, &r);
      if (e.symbol() == "-") overflow = __builtin_sub_overflow(*a, *b, &r);
      if (e.symbol() == "*") overflow = __builtin_mul_overflow(*a, *b, &r);
      if (overflow) return std::nullopt;
      return r;
    }
    default:
      return std::nullopt;
  }
}

std::vector<expr_case> make_cases(const run_config& cfg) {
  static const char* const kTypes[] = {"int", "unsigned", "double"};
  std::vector<expr_case> cases;
  cases.reserve(kExprs);
  for (std::size_t i = 0; i < kExprs; ++i) {
    cgp::check::random_source rs(cgp::check::case_seed(cfg.seed ^ 0x5eed, i));
    const std::string type = kTypes[i % 3];
    for (;;) {  // redraw until the tree evaluates
      cgp::check::generated_expr g =
          cgp::check::generate_expr(rs, type, kMaxDepth);
      if (type == "int" && !checked_int(g.e, g.env)) continue;
      try {
        rewrite::value known = rewrite::evaluate(g.e, g.env);
        cases.push_back({std::move(g.e), std::move(g.env), std::move(known)});
        break;
      } catch (const rewrite::eval_error&) {
        // e.g. a reciprocal of zero: not a valid input
      }
    }
  }
  if (cfg.plant_wrong_answer) {
    rewrite::value& v = cases[cfg.seed % cases.size()].known;
    if (auto* i = std::get_if<std::int64_t>(&v)) ++*i;
    if (auto* u = std::get_if<std::uint64_t>(&v)) ++*u;
    if (auto* d = std::get_if<double>(&v)) *d += 1.0;
  }
  return cases;
}

// The tolerance policy of the library's differential rewrite oracle:
// doubles agree within 1e-9 relative (floor 1), everything else exactly.
bool values_agree(const rewrite::value& a, const rewrite::value& b) {
  if (std::holds_alternative<double>(a) && std::holds_alternative<double>(b)) {
    const double x = std::get<double>(a), y = std::get<double>(b);
    if (x == y) return true;
    if (!std::isfinite(x) || !std::isfinite(y)) return false;
    return std::fabs(x - y) <=
           1e-9 * std::max({std::fabs(x), std::fabs(y), 1.0});
  }
  return rewrite::value_equal(a, b);
}

// The output must evaluate to the known answer and be no larger.
bool correct(const rewrite::expr& out, const expr_case& c) {
  if (out.size() > c.input.size()) return false;
  try {
    return values_agree(rewrite::evaluate(out, c.env), c.known);
  } catch (const rewrite::eval_error&) {
    return false;
  }
}

std::unique_ptr<rewrite::simplifier> make_simplifier() {
  auto s = std::make_unique<rewrite::simplifier>();
  s->add_default_concept_rules();
  s->enable_constant_folding();
  return s;
}

struct simplify_pass_result {
  double wall_s = 0;
  std::uint64_t failed = 0;
};

simplify_pass_result simplify_pass(const rewrite::simplifier& s,
                                   const std::vector<rewrite::expr>& batch,
                                   const std::vector<expr_case>& cases,
                                   work_stealing_pool& pool) {
  simplify_pass_result p;
  const auto t0 = clock_type::now();
  const std::vector<rewrite::expr> out =
      rewrite::simplify_batch(s, batch, pool, kGrain);
  p.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (!correct(out[i], cases[i])) ++p.failed;
  return p;
}

}  // namespace

outcome run_simplify_batch(const run_config& cfg) {
  const std::vector<expr_case> cases = make_cases(cfg);
  std::vector<rewrite::expr> batch;
  batch.reserve(cases.size());
  for (const expr_case& c : cases) batch.push_back(c.input);
  const double n = static_cast<double>(batch.size());
  outcome out;
  const auto make_setup = [] {
    return std::make_pair(
        std::make_unique<work_stealing_pool>(pool_options{.workers = kWorkers}),
        make_simplifier());
  };
  work_stealing_pool pool(pool_options{.workers = kWorkers});
  const std::unique_ptr<rewrite::simplifier> simp = make_simplifier();
  const auto warm_t0 = clock_type::now();
  (void)simplify_pass(*simp, batch, cases, pool);
  const double warmup_s = seconds_since(warm_t0);

  std::vector<double> rates, walls, setups, peaks;
  const auto measure = [&] {
    reset_peak_rss();
    const simplify_pass_result p = simplify_pass(*simp, batch, cases, pool);
    peaks.push_back(peak_rss_mb());
    rates.push_back(n / p.wall_s);
    walls.push_back(p.wall_s);
    out.attempted += batch.size();
    out.failed += p.failed;
    if (!cfg.trace) time_setups(setups, kSetupsPerPass, make_setup);
  };
  if (!cfg.trace) {
    repeat_for(cfg.seconds, 3, measure);
    std::vector<double> latencies_ms;
    for (const double w : walls) latencies_ms.push_back(w * 1e3);
    fill_end_to_end(out, rates, latencies_ms, setups, peaks);
    return out;
  }

  // Traced run.  Untraced passes first: the base rate and the counters,
  // which cover exactly these passes.
  const double phase_s = traced_phase_seconds(cfg);
  auto& m = out.metrics;
  {
    const cgp::telemetry::counter_snapshot counters;
    repeat_for(phase_s, 2, measure);
    const auto delta = [&](const char* name) {
      return static_cast<double>(counters.delta_sum(name));
    };
    const double calls = delta("rewrite.simplifier.simplify_calls");
    const double memo_hits =
        delta("rewrite.simplifier.instantiation_cache_hits");
    m["rewrite.passes_per_call"] =
        share(delta("rewrite.simplifier.passes"), calls);
    m["rewrite.rules_fired_per_expr"] =
        share(delta("rewrite.simplifier.rule."), calls);
    m["rewrite.memo.hit_ratio"] = share(
        memo_hits,
        memo_hits + delta("rewrite.simplifier.instantiation_cache_misses"));
    m["parallel.steals_per_task"] =
        share(delta("parallel.work_stealing.steals"),
              delta("parallel.work_stealing.tasks_completed"));
    m["parallel.parks_per_pass"] = share(delta("parallel.work_stealing.parks"),
                                         static_cast<double>(rates.size()));
  }
  const double base_rate = median(rates);
  const double base_wall = median(walls);

  alloc_counter::enable(true);
  const std::uint64_t allocs_before = alloc_counter::count();
  (void)simplify_pass(*simp, batch, cases, pool);
  const double allocs =
      static_cast<double>(alloc_counter::count() - allocs_before);
  alloc_counter::enable(false);

  const std::uint32_t item_name = spans::name_id("rewrite.simplifier.simplify");
  const std::uint32_t pass_name = spans::name_id("simplify_batch.pass");
  std::vector<std::int64_t> roots;
  std::vector<double> traced_rates;
  std::vector<rewrite::expr> results(batch);
  double in_nodes = 0, out_nodes = 0;
  spans::enable(true);
  repeat_for(phase_s, 2, [&] {
    const auto t0 = clock_type::now();
    {
      spans::scope pass(pass_name);
      roots.push_back(pass.id());
      cgp::parallel::parallel_for(
          batch.size(),
          [&](std::size_t i) {
            spans::scope item(item_name, i, pass.id());
            results[i] = simp->simplify(batch[i]);
          },
          pool, kGrain);
    }
    traced_rates.push_back(n / seconds_since(t0));
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++out.attempted;
      if (!correct(results[i], cases[i])) ++out.failed;
      in_nodes += static_cast<double>(batch[i].size());
      out_nodes += static_cast<double>(results[i].size());
    }
  });
  spans::enable(false);

  double one_worker_wall = 0;
  {
    work_stealing_pool one(pool_options{.workers = 1});
    one_worker_wall = simplify_pass(*simp, batch, cases, one).wall_s;
  }

  const spans::split sp = spans::account(spans::collect(), roots, kWorkers);
  check_split(out, sp, "simplify_batch traced passes");
  m["rewrite.simplify_us"] = per_span_us(sp, "rewrite.simplifier.simplify");
  m["rewrite.shrink_ratio"] = share(out_nodes, in_nodes);
  m["parallel.idle_share"] = share(sp.idle_s, sp.capacity_s);
  m["parallel.speedup"] = share(one_worker_wall, base_wall);
  m["allocs_per_item"] = allocs / n;
  m["warmup_s"] = warmup_s;
  m["trace.overhead_ratio"] = share(base_rate, median(traced_rates));
  return out;
}

}  // namespace e2e
