// lint_cold and lint_edit: the STLlint checker (paper §3.1) as a build
// daemon and as an editor back end.
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "check/gen.hpp"
#include "corpus.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/service.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace stllint = cgp::stllint;
using cgp::parallel::pool_options;
using cgp::parallel::work_stealing_pool;

constexpr std::size_t kColdUnits = 2000;
constexpr std::size_t kGrain = 4;
constexpr std::size_t kEditBase = 500;
constexpr unsigned kClients = 3;
constexpr unsigned kEditPercent = 5;
constexpr unsigned kEditSlices = 10;
// Requests per second one client completed on the 4-core machine the
// benchmark was tuned on; it turns --seconds into a request count.
constexpr double kNominalRequestsPerClientPerS = 25'000;
constexpr std::size_t kRelintUnits = 200;

// Negative control: one wrong expected answer.
void plant_wrong_answer(std::vector<unit>& corpus, std::uint64_t seed) {
  unit& u = corpus[seed % corpus.size()];
  if (u.expected.empty())
    u.expected.push_back({stllint::severity::warning, 1, "planted"});
  else
    ++u.expected.front().line;
}

std::vector<unit> corpus_for(const run_config& cfg, std::size_t count) {
  std::vector<unit> corpus = make_corpus(cfg.seed, count);
  if (cfg.plant_wrong_answer) plant_wrong_answer(corpus, cfg.seed);
  return corpus;
}

struct cold_pass {
  double wall_s = 0;
  std::uint64_t failed = 0;
  std::size_t entries = 0;
};

// One build: a fresh service (every unit misses) lints the whole corpus.
cold_pass lint_cold_pass(work_stealing_pool& pool,
                         const std::vector<std::string>& sources,
                         const std::vector<unit>& corpus) {
  stllint::lint_service svc;
  cold_pass p;
  const auto t0 = clock_type::now();
  const auto results = svc.lint_batch(sources, pool, kGrain);
  p.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < results.size(); ++i)
    if (!matches(*results[i], corpus[i].expected)) ++p.failed;
  p.entries = svc.cache_size();
  return p;
}

// Span names of the layered lint pipeline (what lint_source does).
struct lint_names {
  std::uint32_t lex = spans::name_id("stllint.tokenize");
  std::uint32_t parse = spans::name_id("stllint.parse");
  std::uint32_t analyze = spans::name_id("stllint.analyzer.run");
};

// lint_source spelled out through the layers' public functions, with a
// span around each call.
stllint::lint_result layered_lint(const std::string& source,
                                  const lint_names& n) {
  stllint::lint_result r;
  std::vector<stllint::token> toks;
  {
    spans::scope s(n.lex);
    toks = stllint::tokenize(source, r.diags);
  }
  std::optional<stllint::ast_program> program;
  {
    spans::scope s(n.parse);
    program.emplace(stllint::parse(toks, r.diags));
  }
  const std::vector<std::string> lines = stllint::source_lines(source);
  stllint::analyzer a;
  {
    spans::scope s(n.analyze);
    a.run(*program, lines);
  }
  r.diags.insert(r.diags.end(), a.diags().begin(), a.diags().end());
  r.stats = a.statistics();
  return r;
}

std::vector<std::string> sources_of(const std::vector<unit>& corpus) {
  std::vector<std::string> out;
  out.reserve(corpus.size());
  for (const unit& u : corpus) out.push_back(u.source);
  return out;
}

}  // namespace

outcome run_lint_cold(const run_config& cfg) {
  const std::vector<unit> corpus = corpus_for(cfg, kColdUnits);
  const std::vector<std::string> sources = sources_of(corpus);
  const double n = static_cast<double>(sources.size());
  outcome out;
  const auto make_setup = [] {
    return std::make_pair(
        std::make_unique<work_stealing_pool>(pool_options{.workers = kWorkers}),
        std::make_unique<stllint::lint_service>());
  };
  work_stealing_pool pool(pool_options{.workers = kWorkers});
  const auto warm_t0 = clock_type::now();
  (void)lint_cold_pass(pool, sources, corpus);
  const double warmup_s = seconds_since(warm_t0);

  std::vector<double> rates, walls, setups, peaks;
  std::size_t entries = 0;
  const auto measure = [&] {
    reset_peak_rss();
    const cold_pass p = lint_cold_pass(pool, sources, corpus);
    peaks.push_back(peak_rss_mb());
    rates.push_back(n / p.wall_s);
    walls.push_back(p.wall_s);
    entries = p.entries;
    out.attempted += sources.size();
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
    m["stllint.loop_passes_per_tu"] = share(
        delta("stllint.analyzer.loop_passes"), delta("stllint.analyzer.runs"));
    const double hits = delta("stllint.service.cache_hits");
    m["stllint.service.hit_ratio"] =
        share(hits, hits + delta("stllint.service.cache_misses"));
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
  (void)lint_cold_pass(pool, sources, corpus);
  const double allocs = static_cast<double>(alloc_counter::count() -
                                            allocs_before);
  alloc_counter::enable(false);

  const lint_names names;
  const std::uint32_t item_name = spans::name_id("stllint.lint_source");
  const std::uint32_t pass_name = spans::name_id("lint_cold.pass");
  std::vector<std::int64_t> roots;
  std::vector<double> traced_rates;
  std::vector<stllint::lint_result> results(sources.size());
  spans::enable(true);
  repeat_for(phase_s, 2, [&] {
    const auto t0 = clock_type::now();
    {
      spans::scope pass(pass_name);
      roots.push_back(pass.id());
      cgp::parallel::parallel_for(
          sources.size(),
          [&](std::size_t i) {
            spans::scope item(item_name, i, pass.id());
            results[i] = layered_lint(sources[i], names);
          },
          pool, kGrain);
    }
    traced_rates.push_back(n / seconds_since(t0));
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++out.attempted;
      if (!matches(results[i], corpus[i].expected)) ++out.failed;
    }
  });
  spans::enable(false);

  // Scaling on the same inputs: one worker against three.
  double one_worker_wall = 0;
  {
    work_stealing_pool one(pool_options{.workers = 1});
    one_worker_wall = lint_cold_pass(one, sources, corpus).wall_s;
  }

  const spans::split sp = spans::account(spans::collect(), roots, kWorkers);
  check_split(out, sp, "lint_cold traced passes");
  m["stllint.lex_us"] = per_span_us(sp, "stllint.tokenize");
  m["stllint.parse_us"] = per_span_us(sp, "stllint.parse");
  m["stllint.analyze_us"] = per_span_us(sp, "stllint.analyzer.run");
  m["stllint.service.entries"] = static_cast<double>(entries);
  m["parallel.idle_share"] = share(sp.idle_s, sp.capacity_s);
  m["parallel.speedup"] = share(one_worker_wall, base_wall);
  m["allocs_per_item"] = allocs / n;
  m["warmup_s"] = warmup_s;
  m["trace.overhead_ratio"] = share(base_rate, median(traced_rates));
  out.absent["stllint.service.hit_us"] =
      "lint_cold reaches lint() only inside lint_batch, and every call "
      "misses; lint_edit times lint() per request";
  out.absent["stllint.service.miss_us"] = out.absent["stllint.service.hit_us"];
  return out;
}

namespace {

struct client_log {
  std::vector<double> latency_ms;
  std::vector<std::pair<const stllint::lint_result*, std::size_t>> misses;
  std::uint64_t requests = 0;
  std::uint64_t hit_failures = 0;
};

struct edit_names {
  std::uint32_t hit = spans::name_id("stllint.service.lint.hit");
  std::uint32_t miss = spans::name_id("stllint.service.lint.miss");
};

// One closed-loop client: about 95% of its requests re-lint an unchanged
// unit (a cache hit), the rest a fresh one-line edit (a miss).  The next
// request goes out when the previous one has returned.  A hit must return
// the very summary the warm-up verified; misses are verified afterwards.
void edit_client(stllint::lint_service& svc, const std::vector<unit>& base,
                 const std::vector<const stllint::lint_result*>& warm,
                 unsigned stream, std::uint64_t requests, client_log& log,
                 const edit_names& names, std::int64_t parent,
                 std::uint64_t seed) {
  cgp::check::random_source rs(cgp::check::case_seed(seed ^ 0xed17, stream));
  // Edit literals stay below 2^31 and never repeat within a process.
  std::uint64_t next_literal = 1000 + std::uint64_t{stream} * 50'000'000;
  while (log.requests < requests) {
    const std::size_t b = rs.below(base.size());
    const bool edit = rs.below(100) < kEditPercent;
    std::string fresh;
    if (edit) fresh = make_edit(base[b], rs.below(64), next_literal++);
    const std::string_view source =
        edit ? std::string_view(fresh) : std::string_view(base[b].source);
    const auto t0 = clock_type::now();
    const stllint::lint_result* got = nullptr;
    {
      spans::scope s(edit ? names.miss : names.hit, log.requests, parent);
      got = &svc.lint(source);
    }
    log.latency_ms.push_back(seconds_since(t0) * 1e3);
    ++log.requests;
    if (edit)
      log.misses.emplace_back(got, b);
    else if (got != warm[b])
      ++log.hit_failures;
  }
}

struct edit_window {
  double wall_s = 0;
  std::vector<client_log> logs;
};

// Runs the three clients for what takes about `seconds` at the nominal
// rate: a fixed request count, not a deadline, so that every run of one
// length serves the same edits and grows the insert-only cache to the same
// size.  A deadline would tie the cache, and so `peak_rss_mb`, to the
// throughput.  `phase` keeps every window's edit streams (and so its edit
// literals) distinct.
edit_window run_clients(stllint::lint_service& svc,
                        const std::vector<unit>& base,
                        const std::vector<const stllint::lint_result*>& warm,
                        double seconds, unsigned phase, std::uint64_t seed,
                        const edit_names& names, std::int64_t parent) {
  const auto requests = static_cast<std::uint64_t>(
      std::max(1.0, seconds * kNominalRequestsPerClientPerS));
  edit_window w;
  w.logs.resize(kClients);
  for (client_log& log : w.logs)
    log.latency_ms.reserve(static_cast<std::size_t>(requests));
  const auto t0 = clock_type::now();
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        edit_client(svc, base, warm, phase * kClients + c, requests,
                    w.logs[c], names, parent, seed);
      });
  }
  w.wall_s = seconds_since(t0);
  return w;
}

// Folds a window into the outcome (counts, verification, latency samples)
// and returns its request rate.
double tally(outcome& out, const edit_window& w, const std::vector<unit>& base,
             std::vector<double>* latencies_ms) {
  std::uint64_t requests = 0;
  for (const client_log& log : w.logs) {
    requests += log.requests;
    out.failed += log.hit_failures;
    for (const auto& [got, b] : log.misses)
      if (!matches(*got, base[b].expected)) ++out.failed;
    if (latencies_ms != nullptr)
      latencies_ms->insert(latencies_ms->end(), log.latency_ms.begin(),
                           log.latency_ms.end());
  }
  out.attempted += requests;
  return static_cast<double>(requests) / w.wall_s;
}

}  // namespace

outcome run_lint_edit(const run_config& cfg) {
  const std::vector<unit> base = corpus_for(cfg, kEditBase);
  outcome out;
  stllint::lint_service svc;

  // Warm-up: lint every base unit once (verified against its known
  // answer), then run the clients untimed over the same request mix.
  const auto warm_t0 = clock_type::now();
  std::vector<const stllint::lint_result*> warm(base.size());
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t b = c; b < base.size(); b += kClients)
          warm[b] = &svc.lint(base[b].source);
      });
  }
  for (std::size_t b = 0; b < base.size(); ++b) {
    ++out.attempted;
    if (!matches(*warm[b], base[b].expected)) ++out.failed;
  }
  const edit_names names;
  (void)run_clients(svc, base, warm, 1.0, 0, cfg.seed, names,
                    spans::kNoParent);
  const double warmup_s = seconds_since(warm_t0);

  if (!cfg.trace) {
    // The window is cut into slices with set-ups timed between them; each
    // slice draws fresh request streams, so its edits stay misses.
    std::vector<double> rates, latencies_ms, setups;
    reset_peak_rss();
    for (unsigned s = 0; s < kEditSlices; ++s) {
      const edit_window w =
          run_clients(svc, base, warm, cfg.seconds / kEditSlices, 1 + s,
                      cfg.seed, names, spans::kNoParent);
      rates.push_back(tally(out, w, base, &latencies_ms));
      time_setups(setups, 8 * kSetupsPerPass,
                  [] { return std::make_unique<stllint::lint_service>(); });
    }
    fill_end_to_end(out, rates, latencies_ms, setups, {peak_rss_mb()});
    return out;
  }

  const double phase_s = traced_phase_seconds(cfg);
  cgp::telemetry::counter_snapshot counters;
  const double base_rate =
      tally(out, run_clients(svc, base, warm, phase_s, 1, cfg.seed, names,
                             spans::kNoParent),
            base, nullptr);
  const double hits =
      static_cast<double>(counters.delta_sum("stllint.service.cache_hits"));
  const double misses =
      static_cast<double>(counters.delta_sum("stllint.service.cache_misses"));

  alloc_counter::enable(true);
  const std::uint64_t allocs_before = alloc_counter::count();
  const edit_window counted =
      run_clients(svc, base, warm, 1.0, 2, cfg.seed, names, spans::kNoParent);
  const double allocs =
      static_cast<double>(alloc_counter::count() - allocs_before);
  alloc_counter::enable(false);
  const double counted_requests =
      tally(out, counted, base, nullptr) * counted.wall_s;

  spans::enable(true);
  std::int64_t window_id = spans::kNoParent;
  edit_window traced;
  {
    spans::scope window(spans::name_id("lint_edit.window"));
    window_id = window.id();
    traced = run_clients(svc, base, warm, phase_s, 3, cfg.seed, names,
                         window.id());
  }
  const double traced_rate = tally(out, traced, base, nullptr);
  // The layers behind a miss, timed on fresh edits by the main thread alone.
  const lint_names layer_names;
  const std::uint32_t item_name = spans::name_id("stllint.lint_source");
  std::int64_t relint_id = spans::kNoParent;
  {
    spans::scope relint(spans::name_id("lint_edit.relint"));
    relint_id = relint.id();
    for (std::size_t k = 0; k < kRelintUnits; ++k) {
      const std::size_t b = k % base.size();
      const std::string fresh = make_edit(base[b], k, 1'900'000'000 + k);
      spans::scope item(item_name, k);
      ++out.attempted;
      if (!matches(layered_lint(fresh, layer_names), base[b].expected))
        ++out.failed;
    }
  }
  spans::enable(false);

  const std::vector<spans::record> all = spans::collect();
  const spans::split requests = spans::account(all, {window_id}, kClients);
  const spans::split layers = spans::account(all, {relint_id}, 1);
  check_split(out, requests, "lint_edit traced requests");
  check_split(out, layers, "lint_edit layered re-lint of misses");
  auto& m = out.metrics;
  m["stllint.lex_us"] = per_span_us(layers, "stllint.tokenize");
  m["stllint.parse_us"] = per_span_us(layers, "stllint.parse");
  m["stllint.analyze_us"] = per_span_us(layers, "stllint.analyzer.run");
  m["stllint.service.hit_ratio"] = share(hits, hits + misses);
  m["stllint.service.hit_us"] =
      per_span_us(requests, "stllint.service.lint.hit");
  m["stllint.service.miss_us"] =
      per_span_us(requests, "stllint.service.lint.miss");
  m["stllint.service.entries"] = static_cast<double>(svc.cache_size());
  m["allocs_per_item"] = share(allocs, counted_requests);
  m["warmup_s"] = warmup_s;
  m["trace.overhead_ratio"] = share(base_rate, traced_rate);
  return out;
}

}  // namespace e2e
