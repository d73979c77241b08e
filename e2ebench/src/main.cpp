// End-to-end benchmark: entry point.
//
//   e2ebench --workload lint_cold --seed 1 --seconds 10 --trace 0
//            [--spans FILE] [--plant-wrong-answer]
//
// Prints a human-readable table, then, as the last line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
// non-zero when any output disagrees with its known answer, or when a
// traced run fails its own validation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using e2e::outcome;
using e2e::run_config;

struct metric_def {
  const char* name;
  const char* unit;
  std::vector<std::string_view> workloads;  ///< where it is measured
};

constexpr std::string_view kAll = "*";

const std::vector<metric_def>& end_to_end() {
  static const std::vector<metric_def> defs = {
      {"items_per_s", "1/s", {kAll}},   {"p50_ms", "ms", {kAll}},
      {"p99_ms", "ms", {kAll}},         {"setup_s", "s", {kAll}},
      {"peak_rss_mb", "MB", {kAll}},
  };
  return defs;
}

// The per-layer metrics of the traced run, and the workloads whose path
// runs through each layer.  Elsewhere a metric is reported as 0 with the
// reason it is absent.
const std::vector<metric_def>& per_layer() {
  static const std::vector<metric_def> defs = {
      {"stllint.lex_us", "us", {"lint_cold", "lint_edit"}},
      {"stllint.parse_us", "us", {"lint_cold", "lint_edit"}},
      {"stllint.analyze_us", "us", {"lint_cold", "lint_edit"}},
      {"stllint.loop_passes_per_tu", "count", {"lint_cold"}},
      {"stllint.service.hit_ratio", "ratio", {"lint_cold", "lint_edit"}},
      {"stllint.service.hit_us", "us", {"lint_edit"}},
      {"stllint.service.miss_us", "us", {"lint_edit"}},
      {"stllint.service.entries", "count", {"lint_cold", "lint_edit"}},
      {"rewrite.simplify_us", "us", {"simplify_batch"}},
      {"rewrite.passes_per_call", "count", {"simplify_batch"}},
      {"rewrite.rules_fired_per_expr", "count", {"simplify_batch"}},
      {"rewrite.shrink_ratio", "ratio", {"simplify_batch"}},
      {"rewrite.memo.hit_ratio", "ratio", {"simplify_batch"}},
      {"parallel.idle_share", "ratio",
       {"lint_cold", "simplify_batch", "net_churn"}},
      {"parallel.speedup", "ratio", {"lint_cold", "simplify_batch"}},
      {"parallel.steals_per_task", "ratio", {"lint_cold", "simplify_batch"}},
      {"parallel.parks_per_pass", "count", {"lint_cold", "simplify_batch"}},
      {"distributed.build_s", "s", {"net_churn"}},
      {"distributed.spawn_s", "s", {"net_churn"}},
      {"distributed.round_ms", "ms", {"net_churn"}},
      {"distributed.route_share", "ratio", {"net_churn"}},
      {"distributed.deliver_share", "ratio", {"net_churn"}},
      {"distributed.drop_ratio", "ratio", {"net_churn"}},
      {"distributed.backend.sim.items_per_s", "1/s", {"net_churn"}},
      {"distributed.backend.parallel.items_per_s", "1/s", {"net_churn"}},
      {"distributed.backend.inproc.items_per_s", "1/s", {"net_churn"}},
      {"health.overhead_ratio", "ratio", {"net_churn"}},
      {"allocs_per_item", "count", {kAll}},
      {"warmup_s", "s", {kAll}},
      {"trace.overhead_ratio", "ratio", {kAll}},
  };
  return defs;
}

bool measured_on(const metric_def& d, std::string_view workload) {
  for (const std::string_view w : d.workloads)
    if (w == kAll || w == workload) return true;
  return false;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "lint_cold|lint_edit|simplify_batch|net_churn --seed N "
               "--seconds S --trace 0|1 [--spans FILE] "
               "[--plant-wrong-answer]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  run_config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") cfg.seed = std::stoull(value());
      else if (arg == "--seconds") cfg.seconds = std::stod(value());
      else if (arg == "--trace") cfg.trace = std::stoi(value()) != 0;
      else if (arg == "--spans") spans_path = value();
      else if (arg == "--plant-wrong-answer") cfg.plant_wrong_answer = true;
      else usage("unknown argument");
    } catch (const std::exception&) {
      usage("malformed number");
    }
  }
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) usage("--seconds out of range");
  const std::vector<std::pair<std::string_view, outcome (*)(const run_config&)>>
      workloads = {{"lint_cold", e2e::run_lint_cold},
                   {"lint_edit", e2e::run_lint_edit},
                   {"simplify_batch", e2e::run_simplify_batch},
                   {"net_churn", e2e::run_net_churn}};
  outcome (*run)(const run_config&) = nullptr;
  for (const auto& [name, fn] : workloads)
    if (name == workload) run = fn;
  if (run == nullptr) usage("unknown workload");

  outcome out;
  try {
    out = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  bool ok = out.failed == 0 && out.attempted > 0;
  const std::vector<metric_def>& defs = cfg.trace ? per_layer() : end_to_end();
  std::printf("%s (%s run, seed %llu)\n", workload.c_str(),
              cfg.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(cfg.seed));
  std::string json;
  for (const metric_def& d : defs) {
    const auto found = out.metrics.find(d.name);
    double v = found == out.metrics.end() ? 0.0 : found->second;
    if (!measured_on(d, workload)) {
      const auto why = out.absent.find(d.name);
      std::printf("  %-42s absent: %s\n", d.name,
                  why != out.absent.end()
                      ? why->second.c_str()
                      : "this workload's path does not run through the layer");
      v = 0.0;
    } else if (found == out.metrics.end() || !std::isfinite(v)) {
      std::printf("  %-42s MISSING or not finite\n", d.name);
      out.trace_valid = false;
      ok = false;
      v = 0.0;
    } else {
      std::printf("  %-42s %.6g %s\n", d.name, v, d.unit);
    }
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, v, d.unit);
    json += entry;
  }
  const double fail_share =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("  %-42s %.6g ratio (%llu of %llu items)\n", "fail_share",
              fail_share, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  if (cfg.trace) {
    if (!spans_path.empty()) {
      if (e2e::spans::write_json(spans_path, e2e::spans::collect()))
        std::printf("  spans written to %s\n", spans_path.c_str());
      else
        std::printf("  could not write spans to %s\n", spans_path.c_str());
    }
    std::printf("  traced-run validation: %s\n",
                out.trace_valid ? "passed" : "FAILED");
    ok = ok && out.trace_valid;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), json.c_str());
  return ok ? 0 : 1;
}
