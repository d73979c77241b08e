#include "perf/report.hpp"

#include <sstream>

namespace cgp::perf {

namespace {

using telemetry::json_array;
using telemetry::json_number;
using telemetry::json_object;
using telemetry::json_string;
using telemetry::json_value;

json_value summary_json(const summary& s) {
  json_value v = json_object();
  v.obj["count"] = json_number(s.count);
  v.obj["min"] = json_number(s.min);
  v.obj["max"] = json_number(s.max);
  v.obj["mean"] = json_number(s.mean);
  v.obj["median"] = json_number(s.median);
  v.obj["mad"] = json_number(s.mad);
  v.obj["ci_lo"] = json_number(s.ci.lo);
  v.obj["ci_hi"] = json_number(s.ci.hi);
  return v;
}

/// The benchmark named `name` in a report's benchmarks array, or nullptr.
const json_value* find_benchmark(const json_value& benches,
                                 const std::string& name) {
  for (const json_value& b : benches.arr)
    if (b.has("name") && b.at("name").str == name) return &b;
  return nullptr;
}

const json_value* find_sweep_point(const json_value& sweep, double n) {
  for (const json_value& pt : sweep.arr)
    if (pt.has("n") && pt.at("n").num == n) return &pt;
  return nullptr;
}

/// Duration-unit counters (…_us, …_ns) accumulate wall time, not
/// operations — they are as noisy as the clock and are covered by the
/// time gate, so the deterministic counter gate skips them.
bool is_duration_counter(const std::string& name) {
  return name.size() >= 3 && (name.ends_with("_us") || name.ends_with("_ns"));
}

/// Gates one benchmark present in both reports.  Malformed fields fail
/// through `check`; the caller turns them into "schema" regressions.
void compare_benchmark(const std::string& name, const json_value& base,
                       const json_value& cur, const gate_options& opts,
                       telemetry::validation& check,
                       std::vector<regression>& out) {
  const std::string bwhere = "baseline '" + name + "'";
  const std::string cwhere = "current '" + name + "'";
  // Only a consistent fit passes: an inconclusive one is an unverified
  // claim, and a performance concept must not gate as verified unchecked.
  std::string verdict, detail;
  if (const json_value* fit = check.obj_field(cur, "fit", cwhere);
      fit != nullptr && check.str_field(*fit, "verdict", cwhere, verdict) &&
      verdict != "consistent" &&
      check.str_field(*fit, "detail", cwhere, detail))
    out.push_back({name, "fit", detail});

  const json_value* bsweep = check.arr_field(base, "sweep", bwhere);
  const json_value* csweep = check.arr_field(cur, "sweep", cwhere);
  if (bsweep == nullptr || csweep == nullptr) return;
  for (const json_value& bpt : bsweep->arr) {
    double n = 0.0;
    if (!check.num_field(bpt, "n", bwhere + " sweep point", n)) continue;
    const json_value* cpt = find_sweep_point(*csweep, n);
    if (cpt == nullptr) {
      std::ostringstream os;
      os << "sweep point n=" << n << " missing from the current report";
      out.push_back({name, "coverage", os.str()});
      continue;
    }
    const std::string n_text = " n=" + telemetry::json_number_text(n);
    const std::string bat = bwhere + n_text, cat = cwhere + n_text;

    // Deterministic gate: per-iteration counter growth.
    const json_value* bcounters = check.obj_field(bpt, "counters", bat);
    const json_value* ccounters = check.obj_field(*cpt, "counters", cat);
    if (bcounters != nullptr && ccounters != nullptr) {
      for (const auto& [cname, _] : bcounters->obj) {
        // Sub-unit baselines are once-per-process amortization artifacts
        // (cache warm-up, lazy registration) spread over however many
        // invocations calibration happened to run — not a per-iteration
        // cost.  Real op counters are >= 1 per iteration by construction.
        double bval = 0.0, cval = 0.0;
        if (!check.num_field(*bcounters, cname, bat, bval) ||
            bval < 1.0 || is_duration_counter(cname))
          continue;
        if (ccounters->has(cname) &&
            !check.num_field(*ccounters, cname, cat, cval))
          continue;
        if (cval > bval * opts.counter_ratio + 1e-9) {
          std::ostringstream os;
          os << cname << " at n=" << n << ": " << cval
             << " ops/iter vs baseline " << bval << " (ratio " << cval / bval
             << " > " << opts.counter_ratio << ")";
          out.push_back({name, "counter", os.str()});
        }
      }
    }

    // Noisy gate: whole CI must clear a generous multiple of baseline.
    if (!opts.gate_time) continue;
    const json_value* bt = check.obj_field(bpt, "time_ns", bat);
    const json_value* ct = check.obj_field(*cpt, "time_ns", cat);
    double base_median = 0.0, cur_ci_lo = 0.0;
    if (bt == nullptr || ct == nullptr ||
        !check.num_field(*bt, "median", bat, base_median) ||
        !check.num_field(*ct, "ci_lo", cat, cur_ci_lo))
      continue;
    if (base_median > 0.0 && cur_ci_lo > base_median * opts.time_ratio) {
      std::ostringstream os;
      os << "time at n=" << n << ": ci_lo " << cur_ci_lo
         << " ns/iter vs baseline median " << base_median << " (ratio "
         << cur_ci_lo / base_median << " > " << opts.time_ratio << ")";
      out.push_back({name, "time", os.str()});
    }
  }
}

}  // namespace

json_value report_json(const std::vector<benchmark_result>& results,
                       const environment& env) {
  json_value doc = telemetry::json_document(kSchema);
  doc.obj["environment"] = env.to_json();
  json_value& benches = doc.obj["benchmarks"] = json_array();
  for (const benchmark_result& r : results) {
    json_value b = json_object();
    b.obj["name"] = json_string(r.name);
    b.obj["subsystem"] = json_string(r.subsystem);
    b.obj["declared"] = json_string(r.declared);
    b.obj["counter_prefix"] = json_string(r.counter_prefix);
    b.obj["fitted_on"] = json_string(r.fitted_on);

    json_value& fit = b.obj["fit"] = json_object();
    fit.obj["verdict"] = json_string(to_string(r.fit.v));
    fit.obj["exponent"] = json_number(r.fit.exponent);
    fit.obj["excess"] = json_number(r.fit.excess);
    fit.obj["r2"] = json_number(r.fit.r2);
    fit.obj["detail"] = json_string(r.fit.detail);

    json_value& sweep = b.obj["sweep"] = json_array();
    for (const sweep_point& pt : r.sweep) {
      json_value p = json_object();
      p.obj["n"] = json_number(pt.n);
      p.obj["iterations"] = json_number(pt.iterations);
      p.obj["time_ns"] = summary_json(pt.time_ns);
      json_value& counters = p.obj["counters"] = json_object();
      for (const auto& [name, per_iter] : pt.counters)
        counters.obj[name] = json_number(per_iter);
      sweep.arr.push_back(std::move(p));
    }
    benches.arr.push_back(std::move(b));
  }
  return doc;
}

std::vector<regression> compare_reports(const json_value& current,
                                        const json_value& baseline,
                                        const gate_options& opts) {
  std::vector<regression> out;
  // Every field goes through the typed readers and each failed read is a
  // "schema" regression: a baseline whose "ops" is the string "10" must
  // fail the gate, not switch it off.
  telemetry::validation check;
  const auto schema_regressions = [&](const std::string& benchmark) {
    for (std::string& e : check.errors)
      out.push_back({benchmark, "schema", std::move(e)});
    check.errors.clear();
  };
  for (const auto& [role, doc] : {std::pair{"baseline", &baseline},
                                  std::pair{"current", &current}}) {
    if (check.schema_field(*doc, kSchema))
      (void)check.arr_field(*doc, "benchmarks", role);
    schema_regressions(role);
  }
  if (!out.empty()) return out;

  for (const json_value& base : baseline.at("benchmarks").arr) {
    std::string name;
    if (!check.str_field(base, "name", "baseline benchmark", name)) {
      schema_regressions("baseline");
      continue;
    }
    const json_value* cur = find_benchmark(current.at("benchmarks"), name);
    if (cur == nullptr) {
      out.push_back({name, "coverage",
                     "benchmark present in baseline but missing from the "
                     "current report"});
      continue;
    }
    compare_benchmark(name, base, *cur, opts, check, out);
    schema_regressions(name);
  }
  return out;
}

}  // namespace cgp::perf
