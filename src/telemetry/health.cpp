#include "telemetry/health.hpp"

#include <algorithm>
#include <set>

#include "core/mix64.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"

namespace cgp::telemetry::health {
namespace {

// core::mix64 — the same hash the runtime's fault plan uses, so
// reservoir admission is a pure function of (seed, shard, stream index)
// and identical on every backend and every run.
using core::mix64;

/// Nonzero log2 buckets as [index, count] pairs — compact and lossless.
[[nodiscard]] json_value jbuckets(
    const std::array<std::uint64_t, histogram::kBuckets>& buckets) {
  json_value out = json_array();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    json_value pair = json_array();
    pair.arr.push_back(json_number(i));
    pair.arr.push_back(json_number(buckets[i]));
    out.arr.push_back(std::move(pair));
  }
  return out;
}

[[nodiscard]] json_value jhist(
    std::uint64_t count, std::uint64_t sum,
    const std::array<std::uint64_t, histogram::kBuckets>& buckets) {
  json_value out = json_object();
  out.obj["count"] = json_number(count);
  out.obj["sum"] = json_number(sum);
  out.obj["buckets"] = jbuckets(buckets);
  return out;
}

[[nodiscard]] json_value jrollup(const shard_rollup& r) {
  json_value out = json_object();
  out.obj["routed"] = json_number(r.routed);
  out.obj["delivered"] = json_number(r.delivered);
  out.obj["dropped"] = json_number(r.dropped);
  out.obj["duplicated"] = json_number(r.duplicated);
  out.obj["last_active_round"] = json_number(r.last_active_round);
  out.obj["rounds_active"] = json_number(r.rounds_active);
  out.obj["latency"] = jhist(r.latency_count, r.latency_sum, r.latency_buckets);
  out.obj["depth"] = jhist(r.depth_count, r.depth_sum, r.depth_buckets);
  return out;
}

void emit_verdict(const slo_verdict& v) {
  registry::global().get_counter("telemetry.health.verdicts").add(1);
  registry::global().get_counter("telemetry.health.verdicts." + v.rule).add(1);
  live::flight_recorder::global().note(
      live::flight_entry::kind::marker, "health." + v.rule, v.value,
      v.target + ": " + to_string(v.kind) + " " + std::to_string(v.value) +
          " over " + std::to_string(v.threshold));
  // A root instant: the evaluating thread (the sampler, or a post-run
  // caller) may have no trace context, and the verdict must land anyway.
  trace::root_instant("health." + v.rule + ": " + v.target, "telemetry.health",
                      {{"kind", to_string(v.kind)},
                       {"value", std::to_string(v.value)},
                       {"threshold", std::to_string(v.threshold)},
                       {"tick", std::to_string(v.tick)}});
}

/// Exemplar instants join the run's causal tree: use the barrier thread's
/// own context when it has one (the engine's coordinator runs inside the
/// round span), else adopt the caller's captured phase context.  Only
/// called for traced runs (see end_round).
void record_exemplar_instant(const std::string& backend, const exemplar& ex,
                             std::uint64_t trace_id,
                             std::uint64_t parent_span) {
  std::vector<std::pair<std::string, std::string>> args;
  args.emplace_back("backend", backend);
  args.emplace_back("shard", std::to_string(ex.shard));
  args.emplace_back("round", std::to_string(ex.round));
  args.emplace_back("delivered", std::to_string(ex.delivered));
  args.emplace_back("latency", std::to_string(ex.latency));
  if (trace::current_context().active()) {
    trace::instant("health.exemplar", "telemetry.health", std::move(args));
  } else {
    const trace::context_scope adopt({trace_id, parent_span});
    trace::instant("health.exemplar", "telemetry.health", std::move(args));
  }
}

[[nodiscard]] double threshold_of(const slo_rule& rule) noexcept {
  switch (rule.kind) {
    case rule_kind::skew_ratio:
    case rule_kind::drop_rate:
      return rule.threshold;
    case rule_kind::stall_budget:
    case rule_kind::convergence_deadline:
      return static_cast<double>(rule.budget);
  }
  return 0.0;
}

}  // namespace

const char* to_string(rule_kind k) noexcept {
  switch (k) {
    case rule_kind::skew_ratio: return "skew_ratio";
    case rule_kind::stall_budget: return "stall_budget";
    case rule_kind::drop_rate: return "drop_rate";
    case rule_kind::convergence_deadline: return "convergence_deadline";
  }
  return "unknown";
}

bool parse_rule_kind(std::string_view s, rule_kind& out) noexcept {
  if (s == "skew_ratio") out = rule_kind::skew_ratio;
  else if (s == "stall_budget") out = rule_kind::stall_budget;
  else if (s == "drop_rate") out = rule_kind::drop_rate;
  else if (s == "convergence_deadline") out = rule_kind::convergence_deadline;
  else return false;
  return true;
}

std::vector<slo_rule> default_rules() {
  return {
      {.kind = rule_kind::skew_ratio,
       .name = "shard_skew",
       .threshold = 4.0,
       .min_activity = 1024},
      {.kind = rule_kind::stall_budget, .name = "shard_stall", .budget = 3},
      {.kind = rule_kind::drop_rate,
       .name = "drop_ceiling",
       .threshold = 0.05,
       .min_activity = 1024},
      {.kind = rule_kind::convergence_deadline,
       .name = "gossip_convergence",
       .budget = 8,
       .metric = "distributed.gossip.unconverged"},
  };
}

void shard_rollup::fold(const shard_rollup& other) {
  routed += other.routed;
  delivered += other.delivered;
  dropped += other.dropped;
  duplicated += other.duplicated;
  last_active_round = std::max(last_active_round, other.last_active_round);
  rounds_active += other.rounds_active;
  latency_count += other.latency_count;
  latency_sum += other.latency_sum;
  depth_count += other.depth_count;
  depth_sum += other.depth_sum;
  for (std::size_t i = 0; i < latency_buckets.size(); ++i) {
    latency_buckets[i] += other.latency_buckets[i];
    depth_buckets[i] += other.depth_buckets[i];
  }
}

// ---------------------------------------------------------------------------
// backend_track
// ---------------------------------------------------------------------------

backend_track::backend_track(std::string name, const health_options& opts)
    : name_(std::move(name)),
      opts_(opts),
      rows_(opts.shards == 0 ? 1 : opts.shards) {
  // Pre-size the reservoirs so end_round stays allocation-free on the
  // admission path (it runs once per round on the engine's coordinator).
  for (round_row& r : rows_) r.reservoir.reserve(opts_.reservoir_k);
}

void backend_track::begin_run(std::size_t nodes) {
  const std::lock_guard lock(mu_);
  nodes_ = nodes;
  const std::size_t h = rows_.size();
  width_ = nodes == 0 ? 1 : (nodes + h - 1) / h;
  if (width_ == 0) width_ = 1;
  shards_used_ = nodes == 0 ? 0 : (nodes + width_ - 1) / width_;
  last_round_ns_ = 0;
}

void backend_track::end_round(std::size_t round,
                              std::span<const slot_tally> tally,
                              std::uint64_t now_ns, std::uint64_t trace_id,
                              std::uint64_t parent_span) {
  if constexpr (!kEnabled) return;
  // Admissions become trace instants, so only a traced run collects them:
  // an untraced barrier neither grows `admitted` nor builds instant args.
  const bool traced = trace_id != 0 || trace::current_context().active();
  std::vector<exemplar> admitted;
  {
    const std::lock_guard lock(mu_);
    std::uint64_t wall_us = 0;
    if (!opts_.manual_clock && now_ns != 0) {
      if (last_round_ns_ != 0 && now_ns > last_round_ns_)
        wall_us = (now_ns - last_round_ns_) / 1000;
      last_round_ns_ = now_ns;
    }
    if (round + 1 > rounds_) rounds_ = round + 1;
    for (std::size_t s = 0; s < shards_used_; ++s) {
      round_row& row = rows_[s];
      shard_rollup& r = row.rollup;
      const slot_tally& t = tally[s];
      // Inbox depth: mail this round scheduled into the next round.
      r.depth_buckets[histogram::bucket_of(t.delivered)] += 1;
      r.depth_count += 1;
      r.depth_sum += t.delivered;
      // A slot with drops or duplicates also routed: a quiet slot is all 0.
      if (t.routed == 0 && t.delivered == 0) continue;
      r.routed += t.routed;
      r.delivered += t.delivered;
      r.dropped += t.dropped;
      r.duplicated += t.duplicated;
      // Superstep latency: under the manual clock a pure function of the
      // deterministic run (delivered + 1, so an active-but-quiet round
      // still lands in bucket 1); wall time otherwise.
      const std::uint64_t latency =
          opts_.manual_clock ? t.delivered + 1 : wall_us + 1;
      r.latency_buckets[histogram::bucket_of(latency)] += 1;
      r.latency_count += 1;
      r.latency_sum += latency;
      // Progress is SENDS: a crashed shard keeps receiving gossip from its
      // neighbors long after it stopped doing anything, so a shard only
      // counts as active — and only offers exemplars — in rounds where it
      // routed traffic of its own.  This is what lets the stall rule see a
      // wedged shard inside a still-chattering run.
      if (t.routed == 0) continue;
      r.last_active_round = static_cast<std::uint64_t>(round) + 1;
      r.rounds_active += 1;
      // Reservoir offer (algorithm R): item i survives iff its seeded
      // draw over [0, i) lands below k.
      const std::uint64_t seen = ++row.seen;
      const exemplar ex{static_cast<std::uint32_t>(s),
                        static_cast<std::uint64_t>(round),
                        t.delivered,
                        t.routed,
                        latency,
                        seen};
      if (opts_.reservoir_k == 0) continue;
      if (row.reservoir.size() < opts_.reservoir_k) {
        row.reservoir.push_back(ex);
        if (traced) admitted.push_back(ex);
      } else {
        const std::uint64_t draw =
            mix64(opts_.seed ^ mix64(static_cast<std::uint64_t>(s) + 1) ^
                  mix64(seen));
        const std::uint64_t j = draw % seen;
        if (j < opts_.reservoir_k) {
          row.reservoir[static_cast<std::size_t>(j)] = ex;
          if (traced) admitted.push_back(ex);
        }
      }
    }
  }
  // Outside the lock: admissions become trace instants in the phase tree.
  for (const exemplar& ex : admitted)
    record_exemplar_instant(name_, ex, trace_id, parent_span);
}

backend_snapshot backend_track::snapshot() const {
  backend_snapshot out;
  out.name = name_;
  const std::lock_guard lock(mu_);
  out.nodes = nodes_;
  out.shards_used = shards_used_;
  out.rounds = rounds_;
  out.shards.reserve(shards_used_);
  for (std::size_t s = 0; s < shards_used_; ++s) {
    const round_row& row = rows_[s];
    out.shards.push_back(row.rollup);
    out.rollup.fold(row.rollup);
    for (const exemplar& ex : row.reservoir) out.reservoir.push_back(ex);
    out.reservoir_seen += row.seen;
  }
  return out;
}

// ---------------------------------------------------------------------------
// observatory
// ---------------------------------------------------------------------------

observatory& observatory::global() {
  static observatory o;
  return o;
}

void observatory::enable(health_options opts) {
  const std::lock_guard lock(mu_);
  if (opts.shards == 0) opts.shards = 1;
  if (opts.rules.empty()) opts.rules = default_rules();
  opts_ = std::move(opts);
  tracks_.clear();
  verdicts_.clear();
  episodes_.clear();
  mirrored_.clear();
  ticks_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void observatory::disable() {
  const std::lock_guard lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
}

void observatory::reset() {
  const std::lock_guard lock(mu_);
  tracks_.clear();
  verdicts_.clear();
  episodes_.clear();
  mirrored_.clear();
  ticks_ = 0;
}

health_options observatory::options() const {
  const std::lock_guard lock(mu_);
  return opts_;
}

backend_track* observatory::begin_run(const char* backend,
                                      std::size_t nodes) {
  if constexpr (!kEnabled) return nullptr;
  if (!enabled()) return nullptr;
  const std::lock_guard lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return nullptr;
  auto it = tracks_.find(backend);
  if (it == tracks_.end())
    it = tracks_
             .emplace(backend, std::unique_ptr<backend_track>(
                                   new backend_track(backend, opts_)))
             .first;
  it->second->begin_run(nodes);
  return it->second.get();
}

std::uint64_t observatory::ticks() const {
  const std::lock_guard lock(mu_);
  return ticks_;
}

std::vector<slo_verdict> observatory::verdicts() const {
  const std::lock_guard lock(mu_);
  return verdicts_;
}

std::vector<backend_snapshot> observatory::snapshots() const {
  const std::lock_guard lock(mu_);
  std::vector<backend_snapshot> out;
  out.reserve(tracks_.size());
  for (const auto& [name, track] : tracks_) out.push_back(track->snapshot());
  return out;
}

std::size_t observatory::tick(std::uint64_t now_ms) {
  if constexpr (!kEnabled) return 0;
  if (!enabled()) return 0;
  const std::lock_guard lock(mu_);
  ++ticks_;
  std::vector<backend_snapshot> snaps;
  snaps.reserve(tracks_.size());
  for (const auto& [name, track] : tracks_) snaps.push_back(track->snapshot());
  mirror_locked(snaps);
  return evaluate_rules_locked(now_ms, snaps);
}

void observatory::mirror_locked(const std::vector<backend_snapshot>& snaps) {
  registry& reg = registry::global();
  // Counters are add-only: push the growth since the last mirror so the
  // registry value tracks the cumulative roll-up exactly.
  const auto mirror = [&](const std::string& name, std::uint64_t absolute) {
    std::uint64_t& last = mirrored_[name];
    if (absolute > last) {
      reg.get_counter(name).add(absolute - last);
      last = absolute;
    }
  };
  // Histograms replay bucket-count deltas at each bucket's lower bound:
  // bucket-faithful (counts and percentile estimates match the roll-up),
  // sums approximated at bucket floors.
  const auto replay =
      [&](const std::string& hname,
          const std::array<std::uint64_t, histogram::kBuckets>& buckets) {
        histogram& h = reg.get_histogram(hname);
        for (std::size_t i = 0; i < buckets.size(); ++i) {
          if (buckets[i] == 0) continue;
          std::uint64_t& last = mirrored_[hname + ".b" + std::to_string(i)];
          if (buckets[i] > last) {
            h.record_n(histogram::bucket_bounds(i).first, buckets[i] - last);
            last = buckets[i];
          }
        }
      };
  for (const backend_snapshot& b : snaps) {
    const std::string base = "distributed.health." + b.name;
    for (std::size_t s = 0; s < b.shards.size(); ++s) {
      const shard_rollup& r = b.shards[s];
      const std::string sb = base + ".shard" + std::to_string(s);
      mirror(sb + ".routed", r.routed);
      mirror(sb + ".delivered", r.delivered);
      mirror(sb + ".dropped", r.dropped);
      mirror(sb + ".duplicated", r.duplicated);
    }
    mirror(base + ".routed", b.rollup.routed);
    mirror(base + ".delivered", b.rollup.delivered);
    mirror(base + ".dropped", b.rollup.dropped);
    mirror(base + ".duplicated", b.rollup.duplicated);
    replay(base + ".superstep_latency", b.rollup.latency_buckets);
    replay(base + ".inbox_depth", b.rollup.depth_buckets);
  }
}

std::size_t observatory::evaluate_rules_locked(
    std::uint64_t now_ms, const std::vector<backend_snapshot>& snaps) {
  struct violation {
    const slo_rule* rule;
    std::string target;
    double value;
  };
  std::vector<violation> violations;
  registry& reg = registry::global();
  for (const slo_rule& rule : opts_.rules) {
    switch (rule.kind) {
      case rule_kind::skew_ratio:
        for (const backend_snapshot& b : snaps) {
          std::uint64_t total = 0, best = 0;
          std::size_t best_shard = 0, active = 0;
          for (std::size_t s = 0; s < b.shards.size(); ++s) {
            const std::uint64_t t = b.shards[s].routed + b.shards[s].delivered;
            if (t == 0) continue;
            ++active;
            total += t;
            if (t > best) {
              best = t;
              best_shard = s;
            }
          }
          if (active < 2 || total < rule.min_activity) continue;
          const double mean =
              static_cast<double>(total) / static_cast<double>(active);
          const double ratio = static_cast<double>(best) / mean;
          if (ratio > rule.threshold)
            violations.push_back({&rule,
                                  "distributed." + b.name + ".shard" +
                                      std::to_string(best_shard),
                                  ratio});
        }
        break;
      case rule_kind::stall_budget:
        for (const backend_snapshot& b : snaps) {
          const std::uint64_t newest = b.rollup.last_active_round;
          for (std::size_t s = 0; s < b.shards.size(); ++s) {
            const shard_rollup& r = b.shards[s];
            if (r.last_active_round == 0 || newest <= r.last_active_round)
              continue;
            const std::uint64_t lag = newest - r.last_active_round;
            if (lag > rule.budget)
              violations.push_back(
                  {&rule,
                   "distributed." + b.name + ".shard" + std::to_string(s),
                   static_cast<double>(lag)});
          }
        }
        break;
      case rule_kind::drop_rate:
        for (const backend_snapshot& b : snaps) {
          if (b.rollup.routed == 0 || b.rollup.routed < rule.min_activity)
            continue;
          const double rate = static_cast<double>(b.rollup.dropped) /
                              static_cast<double>(b.rollup.routed);
          if (rate > rule.threshold)
            violations.push_back({&rule, "distributed." + b.name, rate});
        }
        break;
      case rule_kind::convergence_deadline: {
        if (rule.metric.empty() || ticks_ < rule.budget) break;
        const std::int64_t level = reg.get_gauge(rule.metric).value();
        if (level > 0)
          violations.push_back(
              {&rule, rule.metric, static_cast<double>(level)});
        break;
      }
    }
  }
  // Episode bookkeeping (watchdog semantics): one verdict per (rule,
  // target) episode; the episode re-arms when the condition clears.
  std::vector<slo_verdict> fresh;
  std::set<std::pair<std::string, std::string>> current;
  for (const violation& v : violations) {
    const auto key = std::make_pair(v.rule->name, v.target);
    current.insert(key);
    bool& flagged = episodes_[key];
    if (flagged) continue;
    flagged = true;
    slo_verdict verdict;
    verdict.rule = v.rule->name;
    verdict.kind = v.rule->kind;
    verdict.target = v.target;
    verdict.value = v.value;
    verdict.threshold = threshold_of(*v.rule);
    verdict.tick = ticks_;
    verdict.now_ms = now_ms;
    verdicts_.push_back(verdict);
    fresh.push_back(std::move(verdict));
  }
  for (auto& [key, flagged] : episodes_)
    if (flagged && current.find(key) == current.end()) flagged = false;
  // Side effects outside our own data structures; the registry, the
  // flight recorder, and the trace sink carry their own locks.
  for (const slo_verdict& v : fresh) emit_verdict(v);
  return fresh.size();
}

std::string observatory::export_json() const {
  const std::lock_guard lock(mu_);
  json_value doc = json_document("cgp.health.v1");
  doc.obj["clock"] = json_string(opts_.manual_clock ? "manual" : "steady");
  doc.obj["ticks"] = json_number(ticks_);
  doc.obj["seed"] = json_number(opts_.seed);
  doc.obj["shards"] = json_number(opts_.shards);
  doc.obj["reservoir_k"] = json_number(opts_.reservoir_k);
  json_value& backends = doc.obj["backends"] = json_array();
  shard_rollup run_rollup;
  for (const auto& [name, track] : tracks_) {
    const backend_snapshot b = track->snapshot();
    json_value jb = json_object();
    jb.obj["name"] = json_string(b.name);
    jb.obj["nodes"] = json_number(b.nodes);
    jb.obj["shards_used"] = json_number(b.shards_used);
    jb.obj["rounds"] = json_number(b.rounds);
    json_value& rows = jb.obj["shards"] = json_array();
    for (std::size_t s = 0; s < b.shards.size(); ++s) {
      json_value row = jrollup(b.shards[s]);
      row.obj["index"] = json_number(s);
      rows.arr.push_back(std::move(row));
    }
    jb.obj["rollup"] = jrollup(b.rollup);
    json_value& reservoir = jb.obj["reservoir"] = json_array();
    for (const exemplar& ex : b.reservoir) {
      json_value je = json_object();
      je.obj["shard"] = json_number(ex.shard);
      je.obj["round"] = json_number(ex.round);
      je.obj["delivered"] = json_number(ex.delivered);
      je.obj["routed"] = json_number(ex.routed);
      je.obj["latency"] = json_number(ex.latency);
      je.obj["seen"] = json_number(ex.seen);
      reservoir.arr.push_back(std::move(je));
    }
    jb.obj["reservoir_seen"] = json_number(b.reservoir_seen);
    run_rollup.fold(b.rollup);
    backends.arr.push_back(std::move(jb));
  }
  doc.obj["rollup"] = jrollup(run_rollup);
  json_value& rules = doc.obj["rules"] = json_array();
  for (const slo_rule& r : opts_.rules) {
    json_value jr = json_object();
    jr.obj["name"] = json_string(r.name);
    jr.obj["kind"] = json_string(to_string(r.kind));
    jr.obj["threshold"] = json_number(r.threshold);
    jr.obj["budget"] = json_number(r.budget);
    jr.obj["metric"] = json_string(r.metric);
    jr.obj["min_activity"] = json_number(r.min_activity);
    rules.arr.push_back(std::move(jr));
  }
  json_value& verdicts = doc.obj["verdicts"] = json_array();
  for (const slo_verdict& v : verdicts_) {
    json_value jv = json_object();
    jv.obj["rule"] = json_string(v.rule);
    jv.obj["kind"] = json_string(to_string(v.kind));
    jv.obj["target"] = json_string(v.target);
    jv.obj["value"] = json_number(v.value);
    jv.obj["threshold"] = json_number(v.threshold);
    jv.obj["tick"] = json_number(v.tick);
    jv.obj["now_ms"] = json_number(v.now_ms);
    verdicts.arr.push_back(std::move(jv));
  }
  return dump_json(doc);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

/// Reads one histogram object; returns false (with errors) when malformed
/// or when the bucket counts do not sum to `count`.
bool read_hist(validation& c, const json_value& v, const std::string& key,
               const std::string& where, shard_rollup& r, bool latency) {
  const json_value* h = c.obj_field(v, key, where);
  if (h == nullptr) return false;
  const std::string at = where + "." + key;
  std::uint64_t count = 0, sum = 0;
  if (!c.u64_field(*h, "count", at, count) || !c.u64_field(*h, "sum", at, sum))
    return false;
  std::array<std::uint64_t, histogram::kBuckets> buckets{};
  std::uint64_t bucket_total = 0;
  const json_value* pairs = c.arr_field(*h, "buckets", at);
  if (pairs == nullptr) return false;
  for (const json_value& pair : pairs->arr) {
    if (!pair.is(json_value::kind::array) || pair.arr.size() != 2 ||
        !pair.arr[0].is(json_value::kind::number) ||
        !pair.arr[1].is(json_value::kind::number) || pair.arr[1].num < 0.0 ||
        pair.arr[1].num >= 0x1p64) {
      c.fail(at + ": malformed bucket pair");
      return false;
    }
    const double idx = pair.arr[0].num;
    if (!(idx >= 0.0 && idx < static_cast<double>(histogram::kBuckets))) {
      c.fail(at + ": bucket index " + dump_json(pair.arr[0]) +
             " out of range");
      return false;
    }
    const auto n = static_cast<std::uint64_t>(pair.arr[1].num);
    buckets[static_cast<std::size_t>(idx)] += n;
    bucket_total += n;
  }
  if (bucket_total != count) {
    c.fail(at + ": buckets sum to " + std::to_string(bucket_total) +
           ", count says " + std::to_string(count));
    return false;
  }
  if (latency) {
    r.latency_count = count;
    r.latency_sum = sum;
    r.latency_buckets = buckets;
  } else {
    r.depth_count = count;
    r.depth_sum = sum;
    r.depth_buckets = buckets;
  }
  return true;
}

bool read_rollup(validation& c, const json_value& v, const std::string& where,
                 shard_rollup& r) {
  bool ok = c.u64_field(v, "routed", where, r.routed);
  ok = c.u64_field(v, "delivered", where, r.delivered) && ok;
  ok = c.u64_field(v, "dropped", where, r.dropped) && ok;
  ok = c.u64_field(v, "duplicated", where, r.duplicated) && ok;
  ok = c.u64_field(v, "last_active_round", where, r.last_active_round) && ok;
  ok = c.u64_field(v, "rounds_active", where, r.rounds_active) && ok;
  ok = read_hist(c, v, "latency", where, r, true) && ok;
  ok = read_hist(c, v, "depth", where, r, false) && ok;
  return ok;
}

void check_fold(validation& c, const shard_rollup& rollup,
                const shard_rollup& folded, const std::string& where) {
  const auto miscount = [&](const char* what, std::uint64_t got,
                            std::uint64_t want) {
    if (got != want)
      c.fail(where + ": rollup." + what + " is " + std::to_string(got) +
             ", rows fold to " + std::to_string(want));
  };
  miscount("routed", rollup.routed, folded.routed);
  miscount("delivered", rollup.delivered, folded.delivered);
  miscount("dropped", rollup.dropped, folded.dropped);
  miscount("duplicated", rollup.duplicated, folded.duplicated);
  miscount("last_active_round", rollup.last_active_round,
           folded.last_active_round);
  miscount("rounds_active", rollup.rounds_active, folded.rounds_active);
  miscount("latency.count", rollup.latency_count, folded.latency_count);
  miscount("latency.sum", rollup.latency_sum, folded.latency_sum);
  miscount("depth.count", rollup.depth_count, folded.depth_count);
  miscount("depth.sum", rollup.depth_sum, folded.depth_sum);
}

}  // namespace

health_validation validate_health_export(const json_value& doc) {
  health_validation v;
  if (!v.schema_field(doc, "cgp.health.v1")) return v;
  std::string clock;
  if (v.str_field(doc, "clock", "document", clock) && clock != "manual" &&
      clock != "steady")
    v.fail("clock is '" + clock + "', expected 'manual' or 'steady'");
  std::uint64_t ticks = 0, reservoir_k = 0, shards_cfg = 0, seed = 0;
  (void)v.u64_field(doc, "ticks", "document", ticks);
  (void)v.u64_field(doc, "reservoir_k", "document", reservoir_k);
  (void)v.u64_field(doc, "shards", "document", shards_cfg);
  (void)v.u64_field(doc, "seed", "document", seed);

  // Rules: unique names, known kinds; verdicts reference them.
  std::map<std::string, rule_kind> rules;
  if (const json_value* jrules = v.arr_field(doc, "rules", "document")) {
    for (const json_value& jr : jrules->arr) {
      std::string name, kind_s;
      if (!v.str_field(jr, "name", "rule", name) ||
          !v.str_field(jr, "kind", "rule", kind_s))
        continue;
      rule_kind kind;
      if (!parse_rule_kind(kind_s, kind)) {
        v.fail("rule '" + name + "': unknown kind '" + kind_s + "'");
        continue;
      }
      if (!rules.emplace(name, kind).second)
        v.fail("rule '" + name + "': duplicate name");
    }
  }

  shard_rollup run_fold;
  if (const json_value* backends = v.arr_field(doc, "backends", "document")) {
    for (const json_value& jb : backends->arr) {
      ++v.backends;
      std::string name;
      if (!v.str_field(jb, "name", "backend", name)) continue;
      const std::string where = "backend '" + name + "'";
      std::uint64_t shards_used = 0, seen = 0;
      (void)v.u64_field(jb, "shards_used", where, shards_used);
      (void)v.u64_field(jb, "reservoir_seen", where, seen);
      if (shards_used > shards_cfg)
        v.fail(where + ": shards_used " + std::to_string(shards_used) +
               " exceeds configured " + std::to_string(shards_cfg));
      shard_rollup folded;
      if (const json_value* rows = v.arr_field(jb, "shards", where)) {
        if (rows->arr.size() != shards_used)
          v.fail(where + ": " + std::to_string(rows->arr.size()) +
                 " shard rows, shards_used says " +
                 std::to_string(shards_used));
        for (const json_value& row : rows->arr) {
          ++v.shards;
          shard_rollup r;
          if (read_rollup(v, row, where + " shard row", r)) folded.fold(r);
        }
      }
      shard_rollup rollup;
      if (jb.has("rollup") &&
          read_rollup(v, jb.at("rollup"), where + " rollup", rollup)) {
        check_fold(v, rollup, folded, where);
        run_fold.fold(rollup);
      }
      // Reservoir: per-shard retention within k, plausible admissions.
      std::map<std::uint32_t, std::uint64_t> kept;
      std::uint64_t max_seen = 0;
      if (const json_value* reservoir = v.arr_field(jb, "reservoir", where)) {
        for (const json_value& je : reservoir->arr) {
          ++v.exemplars;
          std::uint64_t shard = 0, ex_seen = 0;
          if (!v.u64_field(je, "shard", where + " exemplar", shard) ||
              !v.u64_field(je, "seen", where + " exemplar", ex_seen))
            continue;
          if (shard >= shards_used)
            v.fail(where + ": exemplar shard " + std::to_string(shard) +
                   " out of range");
          if (ex_seen == 0)
            v.fail(where + ": exemplar admission index 0 (must be 1-based)");
          max_seen = std::max(max_seen, ex_seen);
          ++kept[static_cast<std::uint32_t>(shard)];
        }
      }
      for (const auto& [shard, count] : kept)
        if (count > reservoir_k)
          v.fail(where + ": shard " + std::to_string(shard) + " kept " +
                 std::to_string(count) + " exemplars, k is " +
                 std::to_string(reservoir_k));
      if (max_seen > seen)
        v.fail(where + ": exemplar admission index " +
               std::to_string(max_seen) + " exceeds reservoir_seen " +
               std::to_string(seen));
    }
  }
  shard_rollup top;
  if (doc.has("rollup") && read_rollup(v, doc.at("rollup"), "run rollup", top))
    check_fold(v, top, run_fold, "run");

  if (const json_value* verdicts = v.arr_field(doc, "verdicts", "document")) {
    for (const json_value& jv : verdicts->arr) {
      ++v.verdicts;
      std::string rule, kind_s, target;
      std::uint64_t tick = 0;
      if (!v.str_field(jv, "rule", "verdict", rule) ||
          !v.str_field(jv, "kind", "verdict", kind_s) ||
          !v.str_field(jv, "target", "verdict", target) ||
          !v.u64_field(jv, "tick", "verdict", tick))
        continue;
      const auto it = rules.find(rule);
      if (it == rules.end()) {
        v.fail("verdict references unknown rule '" + rule + "'");
        continue;
      }
      rule_kind kind;
      if (!parse_rule_kind(kind_s, kind) || kind != it->second)
        v.fail("verdict '" + rule + "': kind '" + kind_s +
               "' does not match the rule");
      if (tick == 0 || tick > ticks)
        v.fail("verdict '" + rule + "': tick " + std::to_string(tick) +
               " outside [1, " + std::to_string(ticks) + "]");
    }
  }
  return v;
}

}  // namespace cgp::telemetry::health
