#include "telemetry/live.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "telemetry/health.hpp"
#include "telemetry/recorder.hpp"

namespace cgp::telemetry::live {
namespace {

counter& samples_counter() {
  static counter& c = registry::global().get_counter("telemetry.live.samples");
  return c;
}

gauge& series_gauge() {
  static gauge& g = registry::global().get_gauge("telemetry.live.series");
  return g;
}

const char* kind_name(char k) noexcept {
  switch (k) {
    case 'c':
      return "counter_delta";
    case 'g':
      return "gauge";
    case 'n':
      return "hist_count_delta";
    case 's':
      return "hist_sum_delta";
  }
  return "?";
}

}  // namespace

std::string prometheus_name(const std::string& metric) {
  std::string out = "cgp_";
  out.reserve(metric.size() + 4);
  for (const char ch : metric) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    out.push_back(ok ? ch : '_');
  }
  return out;
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(ch);
    }
  }
  return out;
}

sampler::sampler(sample_options opts, registry& reg)
    : opts_(opts), reg_(&reg) {
  if (opts_.period_ms == 0) opts_.period_ms = 1;
  if (opts_.capacity == 0) opts_.capacity = 1;
  // Register the sampler's own meta-metrics up front: created lazily at the
  // end of the first tick they would be missing from that tick's snapshot,
  // making the first-ever run's export differ from every later one (the
  // manual-clock determinism test gates on byte-identical documents).
  if constexpr (kEnabled) {
    (void)samples_counter();
    (void)series_gauge();
  }
}

sampler::~sampler() { stop(); }

void sampler::start() {
  if constexpr (!kEnabled) return;
  const std::lock_guard lock(run_mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void sampler::stop() {
  std::thread t;
  {
    const std::lock_guard lock(run_mu_);
    if (!running_) return;
    stop_requested_ = true;
    t = std::move(thread_);
    running_ = false;
  }
  run_cv_.notify_all();
  if (t.joinable()) t.join();
}

bool sampler::running() const {
  const std::lock_guard lock(run_mu_);
  return running_;
}

void sampler::run_loop() {
  std::unique_lock lock(run_mu_);
  while (!stop_requested_) {
    lock.unlock();
    sample_at(steady_now_ms());
    lock.lock();
    run_cv_.wait_for(lock, std::chrono::milliseconds(opts_.period_ms),
                     [this] { return stop_requested_; });
  }
}

std::uint64_t sampler::append(const std::string& name, char kind,
                              std::uint64_t t_ms, std::uint64_t raw,
                              std::int64_t gauge_level) {
  series_state& st = metrics_[name];
  const std::uint64_t prev = st.last_raw;
  st.kind = kind;
  double v;
  if (kind == 'g') {
    v = static_cast<double>(gauge_level);
    st.last_value = v;
  } else {
    // Per-period delta; a registry reset mid-flight makes raw < last_raw,
    // in which case the honest delta restarts from the new absolute value.
    v = raw >= st.last_raw ? static_cast<double>(raw - st.last_raw)
                           : static_cast<double>(raw);
    st.last_raw = raw;
  }
  ++st.total_points;
  if (st.ring.size() < opts_.capacity) {
    st.ring.push_back({t_ms, v});
  } else {
    st.ring[st.head] = {t_ms, v};
    st.head = (st.head + 1) % opts_.capacity;
  }
  return prev;
}

void sampler::sample_at(std::uint64_t now_ms) {
  if constexpr (!kEnabled) return;
  // Drive the health observatory first: its tick mirrors the per-shard
  // roll-ups into the registry (and evaluates the SLO rules), so the
  // registry walk below samples this tick's fresh values.  One relaxed
  // load when the observatory is disabled.
  health::observatory::global().tick(now_ms);
  const auto counters = reg_->counter_values();
  const auto gauges = reg_->gauge_values();
  const auto hists = reg_->histogram_totals();
  {
    const std::lock_guard lock(mu_);
    for (const auto& [name, v] : counters) {
      // Nonzero movement since the previous tick feeds the flight recorder.
      const std::uint64_t prev = append(name, 'c', now_ms, v, 0);
      if (v > prev)
        flight_recorder::global().note(flight_entry::kind::counter, name,
                                       static_cast<double>(v - prev));
    }
    for (const auto& [name, v] : gauges) append(name, 'g', now_ms, 0, v);
    for (const auto& [name, cnt, sum] : hists) {
      append(name + ".count", 'n', now_ms, cnt, 0);
      append(name + ".sum", 's', now_ms, sum, 0);
    }
  }
  const std::size_t metric_count =
      counters.size() + gauges.size() + 2 * hists.size();
  if (opts_.watch)
    watchdog::global().check(now_ms, opts_.period_ms, opts_.miss_threshold);
  samples_.fetch_add(1, std::memory_order_relaxed);
  samples_counter().add(1);
  series_gauge().set(static_cast<std::int64_t>(metric_count));
}

std::uint64_t sampler::samples_taken() const {
  return samples_.load(std::memory_order_relaxed);
}

std::vector<series_view> sampler::series() const {
  const std::lock_guard lock(mu_);
  std::vector<series_view> result;
  result.reserve(metrics_.size());
  for (const auto& [name, st] : metrics_) {
    series_view& v = result.emplace_back();
    v.name = name;
    v.kind = kind_name(st.kind);
    v.total_points = st.total_points;
    v.points.reserve(st.ring.size());
    for (std::size_t i = 0; i < st.ring.size(); ++i)
      v.points.push_back(st.ring[(st.head + i) % st.ring.size()]);
  }
  return result;
}

std::string sampler::export_prometheus() const {
  std::ostringstream os;
  // One pull over the retained state: counters expose their cumulative
  // absolute value (what a Prometheus scraper rate()s over), gauges their
  // latest level.  Sanitization can collide — "a.b" and "a:b" both map to
  // cgp_a_b — and the text format allows exactly one # TYPE line per
  // family, so samples are grouped by exposition name and keep the
  // original registry name as an escaped {metric="..."} label.
  struct prom_sample {
    std::string metric;
    bool is_gauge = false;
    std::uint64_t raw = 0;
    double level = 0.0;
  };
  // Registered histograms export as full `histogram`-typed families below
  // (_bucket/_sum/_count); their ring-derived <name>.count / <name>.sum
  // series are suppressed here, because those would sanitize to the very
  // cgp_<name>_count / cgp_<name>_sum sample names the histogram family
  // owns, and the format forbids one name under two types.
  const std::vector<registry::histogram_view> hists = reg_->histogram_views();
  std::set<std::string> hist_names;
  for (const registry::histogram_view& h : hists) hist_names.insert(h.name);
  // Metrics are walked in name order, so each family's samples arrive
  // sorted by registry name.
  std::map<std::string, std::vector<prom_sample>> families;
  {
    const std::lock_guard lock(mu_);
    for (const auto& [name, st] : metrics_) {
      if (st.kind == 'n' || st.kind == 's') {
        const std::size_t dot = name.rfind('.');
        if (dot != std::string::npos &&
            hist_names.count(name.substr(0, dot)) != 0)
          continue;
      }
      prom_sample s;
      s.metric = name;
      s.is_gauge = st.kind == 'g';
      s.raw = st.last_raw;
      s.level = st.last_value;
      families[prometheus_name(name)].push_back(std::move(s));
    }
  }
  for (const auto& [pname, samples] : families) {
    // A family whose colliding members disagree on kind has no honest
    // single type; the spec's escape hatch for that is "untyped".
    bool any_gauge = false;
    bool any_counter = false;
    for (const prom_sample& s : samples) (s.is_gauge ? any_gauge : any_counter) = true;
    const char* type = any_gauge && any_counter ? "untyped"
                       : any_gauge              ? "gauge"
                                                : "counter";
    os << "# TYPE " << pname << " " << type << "\n";
    for (const prom_sample& s : samples) {
      os << pname << "{metric=\"" << prometheus_escape_label(s.metric)
         << "\"} ";
      if (s.is_gauge)
        os << static_cast<long long>(s.level);
      else
        os << s.raw;
      os << "\n";
    }
  }
  // Full log2-histogram families: cumulative `le`-bucketed series (each
  // bucket's le is its inclusive upper value bound), then _sum and
  // _count, per the text exposition format.  Concurrent recording can
  // leave the bucket walk ahead of the count snapshot; the +Inf bucket
  // takes the max so the cumulative series stays monotone.
  for (const registry::histogram_view& h : hists) {
    const std::string pname = prometheus_name(h.name);
    const std::string label = prometheus_escape_label(h.name);
    os << "# TYPE " << pname << " histogram\n";
    std::size_t max_bucket = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      if (h.buckets[i] != 0) max_bucket = i;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= max_bucket; ++i) {
      cumulative += h.buckets[i];
      os << pname << "_bucket{metric=\"" << label << "\",le=\""
         << histogram::bucket_bounds(i).second << "\"} " << cumulative
         << "\n";
    }
    const std::uint64_t total = std::max(cumulative, h.count);
    os << pname << "_bucket{metric=\"" << label << "\",le=\"+Inf\"} " << total
       << "\n";
    os << pname << "_sum{metric=\"" << label << "\"} " << h.sum << "\n";
    os << pname << "_count{metric=\"" << label << "\"} " << total << "\n";
  }
  return os.str();
}

std::string sampler::export_json() const {
  json_value doc = json_document("cgp.live.v1");
  doc.obj["period_ms"] = json_number(opts_.period_ms);
  doc.obj["capacity"] = json_number(opts_.capacity);
  doc.obj["samples"] = json_number(samples_taken());
  json_value& series_arr = doc.obj["series"] = json_array();
  for (series_view& v : series()) {
    json_value s = json_object();
    s.obj["name"] = json_string(std::move(v.name));
    s.obj["kind"] = json_string(std::move(v.kind));
    s.obj["total_points"] = json_number(v.total_points);
    json_value& pts = s.obj["points"] = json_array();
    for (const series_point& p : v.points) {
      json_value pt = json_object();
      pt.obj["t_ms"] = json_number(p.t_ms);
      pt.obj["v"] = json_number(p.value);
      pts.arr.push_back(std::move(pt));
    }
    series_arr.arr.push_back(std::move(s));
  }
  if (opts_.watch) {
    json_value& wd = doc.obj["watchdog"] = json_object();
    json_value& stalls = wd.obj["stalls"] = json_array();
    for (const stall_event& ev : watchdog::global().stalls()) {
      json_value s = json_object();
      s.obj["participant"] = json_string(ev.participant);
      s.obj["last_beat_ms"] = json_number(ev.last_beat_ms);
      s.obj["detected_at_ms"] = json_number(ev.detected_at_ms);
      s.obj["silent_ms"] = json_number(ev.silent_ms);
      stalls.arr.push_back(std::move(s));
    }
  }
  return dump_json(doc);
}

void sampler::clear() {
  const std::lock_guard lock(mu_);
  metrics_.clear();
  samples_.store(0, std::memory_order_relaxed);
}

live_validation validate_live_export(const json_value& doc) {
  live_validation r;
  if (!r.schema_field(doc, "cgp.live.v1")) return r;
  double period = 0.0, cap = 0.0, samples = 0.0;
  (void)r.num_field(doc, "period_ms", "document", period);
  (void)r.num_field(doc, "capacity", "document", cap);
  (void)r.num_field(doc, "samples", "document", samples);
  const json_value* series = r.arr_field(doc, "series", "document");
  if (series == nullptr) return r;
  for (const json_value& s : series->arr) {
    const std::string where = "series " + std::to_string(r.series++);
    std::string name, kind;
    const json_value* pts = nullptr;
    if (!r.str_field(s, "name", where, name) ||
        !r.str_field(s, "kind", where, kind) ||
        (pts = r.arr_field(s, "points", where)) == nullptr)
      continue;
    if (kind == "counter_delta")
      ++r.counters;
    else if (kind == "gauge")
      ++r.gauges;
    else if (kind == "hist_count_delta" || kind == "hist_sum_delta")
      ++r.histograms;
    else
      r.fail("series '" + name + "' has unknown kind '" + kind + "'");
    if (cap > 0.0 && static_cast<double>(pts->arr.size()) > cap)
      r.fail("series '" + name + "' retains more points than capacity");
    double prev_t = -1.0;
    for (const json_value& p : pts->arr) {
      ++r.points;
      double t = 0.0, v = 0.0;
      if (!r.num_field(p, "t_ms", "series '" + name + "' point", t) ||
          !r.num_field(p, "v", "series '" + name + "' point", v))
        break;
      if (t < prev_t) {
        r.fail("series '" + name + "' goes backwards in time");
        break;
      }
      prev_t = t;
    }
  }
  if (!doc.has("watchdog")) return r;
  const json_value* stalls =
      r.arr_field(doc.at("watchdog"), "stalls", "watchdog");
  if (stalls == nullptr) return r;
  for (const json_value& s : stalls->arr) {
    const std::string where = "stall " + std::to_string(r.stalls++);
    std::string participant;
    double ms = 0.0;
    (void)r.str_field(s, "participant", where, participant);
    for (const char* key : {"last_beat_ms", "detected_at_ms", "silent_ms"})
      (void)r.num_field(s, key, where, ms);
  }
  return r;
}

}  // namespace cgp::telemetry::live
