#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace cgp::telemetry::trace {

namespace {

std::atomic<std::uint64_t> id_counter{1};

/// Small sequential per-thread lane id (stable for the thread's lifetime;
/// nicer Perfetto tracks than hashed std::thread::id values).
std::uint32_t thread_lane() noexcept {
  static std::atomic<std::uint32_t> next{1};
  static thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

struct tls_context {
  span_context ctx{};
  bool adopted = false;  ///< ctx was installed by context_scope
  int rank = 0;
};
thread_local tls_context tls;

counter& events_counter() {
  static counter& c =
      registry::global().get_counter("telemetry.trace.events");
  return c;
}

counter& dropped_counter() {
  static counter& c =
      registry::global().get_counter("telemetry.trace.dropped_events");
  return c;
}

const char* link_name(event::link_kind k) {
  switch (k) {
    case event::link_kind::root:
      return "root";
    case event::link_kind::scope:
      return "scope";
    case event::link_kind::async:
      return "async";
  }
  return "?";
}

}  // namespace

std::uint64_t next_id() noexcept {
  return id_counter.fetch_add(1, std::memory_order_relaxed);
}

span_context current_context() noexcept {
  if constexpr (!kEnabled) return {};
  return tls.ctx;
}

// --- rank_scope -------------------------------------------------------------

rank_scope::rank_scope(int rank) noexcept {
  if constexpr (kEnabled) {
    prev_ = tls.rank;
    tls.rank = rank;
  }
}

rank_scope::~rank_scope() {
  if constexpr (kEnabled) tls.rank = prev_;
}

// --- context_scope ----------------------------------------------------------

context_scope::context_scope(span_context ctx) noexcept {
  if constexpr (kEnabled) {
    prev_ = tls.ctx;
    prev_adopted_ = tls.adopted;
    tls.ctx = ctx;
    tls.adopted = true;
  }
}

context_scope::~context_scope() {
  if constexpr (kEnabled) {
    tls.ctx = prev_;
    tls.adopted = prev_adopted_;
  }
}

// --- sink -------------------------------------------------------------------

sink& sink::global() {
  static sink s;
  return s;
}

void sink::set_max_events(std::size_t max_events) noexcept {
  max_events_.store(max_events, std::memory_order_relaxed);
  registry::global()
      .get_gauge("telemetry.trace.max_events")
      .set(static_cast<std::int64_t>(max_events));
}

std::size_t sink::max_events() const noexcept {
  return max_events_.load(std::memory_order_relaxed);
}

void sink::record(event e) {
  if constexpr (!kEnabled) return;
  const std::size_t per_shard =
      std::max<std::size_t>(1, max_events_.load(std::memory_order_relaxed) /
                                   kShards);
  shard& sh = shards_[thread_lane() % kShards];
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard lock(sh.mu);
    if (sh.events.size() >= per_shard) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      dropped_counter().add();
      return;
    }
    sh.events.push_back(std::move(e));
  }
  events_counter().add();
}

std::uint64_t sink::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

std::size_t sink::size() const {
  std::size_t total = 0;
  for (const shard& sh : shards_) {
    const std::lock_guard lock(sh.mu);
    total += sh.events.size();
  }
  return total;
}

std::vector<event> sink::snapshot() const {
  std::vector<event> out;
  for (const shard& sh : shards_) {
    const std::lock_guard lock(sh.mu);
    out.insert(out.end(), sh.events.begin(), sh.events.end());
  }
  std::sort(out.begin(), out.end(), [](const event& a, const event& b) {
    return std::tie(a.ts_ns, a.seq) < std::tie(b.ts_ns, b.seq);
  });
  return out;
}

void sink::clear() {
  for (shard& sh : shards_) {
    const std::lock_guard lock(sh.mu);
    sh.events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::string sink::export_chrome_trace() const {
  const std::vector<event> events = snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  char ts_buf[32];
  for (const event& e : events) {
    if (!first) os << ",\n";
    first = false;
    // Chrome wants microseconds; keep ns resolution in the fraction.
    std::snprintf(ts_buf, sizeof ts_buf, "%llu.%03u",
                  static_cast<unsigned long long>(e.ts_ns / 1000),
                  static_cast<unsigned>(e.ts_ns % 1000));
    os << "{\"name\":" << json_quote(e.name) << ",\"cat\":"
       << json_quote(e.cat) << ",\"ph\":\"" << static_cast<char>(e.ph)
       << "\",\"ts\":" << ts_buf << ",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid;
    if (e.ph == event::phase::counter) {
      // Counter tracks carry ONLY the plotted series: extra args keys
      // would each become their own Perfetto series and bury the metric.
      os << ",\"args\":{\"value\":" << json_number_text(e.value)
         << "}}";
      continue;
    }
    if (e.ph == event::phase::instant) os << ",\"s\":\"t\"";
    if (e.ph == event::phase::flow_start ||
        e.ph == event::phase::flow_finish) {
      os << ",\"id\":" << e.flow_id;
      if (e.ph == event::phase::flow_finish) os << ",\"bt\":\"e\"";
    }
    os << ",\"args\":{\"trace_id\":" << e.trace_id
       << ",\"span_id\":" << e.span_id << ",\"parent_span\":" << e.parent_span
       << ",\"seq\":" << e.seq << ",\"link\":\"" << link_name(e.link) << "\"";
    for (const auto& [k, v] : e.args)
      os << "," << json_quote(k) << ":" << json_quote(v);
    os << "}}";
  }
  os << "],\"otherData\":{\"dropped_events\":" << dropped()
     << ",\"max_events\":" << max_events() << "}}";
  return os.str();
}

// --- spans, instants, flows -------------------------------------------------

namespace {

/// An event on the calling thread's rank and lane at `now_ns` (a
/// steady_now_ns() reading), owned by span `self` under `parent`.
event stamped(event::phase ph, std::string name, std::string cat,
              std::uint64_t now_ns, span_context self, std::uint64_t parent) {
  event e;
  e.ph = ph;
  e.ts_ns = sink::global().ts_of(now_ns);
  e.pid = tls.rank;
  e.tid = thread_lane();
  e.trace_id = self.trace_id;
  e.span_id = self.span_id;
  e.parent_span = parent;
  e.name = std::move(name);
  e.cat = std::move(cat);
  return e;
}

/// A point event at the thread's current position in its trace: stamped
/// now, with a fresh id under the current context.
event here(event::phase ph, std::string name, std::string cat) {
  event e = stamped(ph, std::move(name), std::move(cat), steady_now_ns(),
                    {tls.ctx.trace_id, next_id()}, tls.ctx.span_id);
  e.link = event::link_kind::scope;
  return e;
}

}  // namespace

namespace detail {

open_span begin_span(std::string_view name, std::string_view cat,
                     std::uint64_t now_ns) {
  open_span sp;
  if constexpr (!kEnabled) return sp;
  sp.prev = tls.ctx;
  sp.prev_adopted = tls.adopted;
  sp.ctx.trace_id = sp.prev.active() ? sp.prev.trace_id : next_id();
  sp.ctx.span_id = next_id();
  event e = stamped(event::phase::begin, std::string(name), std::string(cat),
                    now_ns, sp.ctx, sp.prev.active() ? sp.prev.span_id : 0);
  e.link = !sp.prev.active()
               ? event::link_kind::root
               : (sp.prev_adopted ? event::link_kind::async
                                  : event::link_kind::scope);
  sink::global().record(std::move(e));
  tls.ctx = sp.ctx;
  tls.adopted = false;
  return sp;
}

void end_span(const open_span& sp, std::string_view name,
              std::string_view cat, std::uint64_t now_ns,
              std::vector<std::pair<std::string, std::string>> args) {
  if constexpr (!kEnabled) return;
  tls.ctx = sp.prev;
  tls.adopted = sp.prev_adopted;
  event e = stamped(event::phase::end, std::string(name), std::string(cat),
                    now_ns, sp.ctx, 0);
  e.args = std::move(args);
  sink::global().record(std::move(e));
}

}  // namespace detail

trace_span::trace_span(std::string name, std::string cat)
    : name_(std::move(name)), cat_(std::move(cat)) {
  if constexpr (kEnabled)
    span_ = detail::begin_span(name_, cat_, steady_now_ns());
}

trace_span::~trace_span() {
  if constexpr (kEnabled)
    detail::end_span(span_, name_, cat_, steady_now_ns(), std::move(args_));
}

void trace_span::arg(std::string key, std::string value) {
  if constexpr (kEnabled)
    args_.emplace_back(std::move(key), std::move(value));
}

void instant(std::string name, std::string cat,
             std::vector<std::pair<std::string, std::string>> args) {
  if constexpr (!kEnabled) return;
  if (!tls.ctx.active()) return;
  event e = here(event::phase::instant, std::move(name), std::move(cat));
  e.args = std::move(args);
  sink::global().record(std::move(e));
}

void root_instant(std::string name, std::string cat,
                  std::vector<std::pair<std::string, std::string>> args) {
  if constexpr (!kEnabled) return;
  // Off every request path: a trace of its own, on no rank's lane.
  event e = stamped(event::phase::instant, std::move(name), std::move(cat),
                    steady_now_ns(), {next_id(), next_id()}, 0);
  e.pid = 0;
  e.tid = 0;
  e.args = std::move(args);
  sink::global().record(std::move(e));
}

void counter_sample(const std::string& name, double value,
                    const std::string& cat) {
  if constexpr (!kEnabled) return;
  if (!tls.ctx.active()) return;
  event e = here(event::phase::counter, name, cat);
  e.value = value;
  sink::global().record(std::move(e));
}

void sample_registry_counters(const std::string& prefix, registry& reg) {
  if constexpr (!kEnabled) return;
  if (!tls.ctx.active()) return;
  for (const auto& [name, v] : reg.counter_values())
    if (name.compare(0, prefix.size(), prefix) == 0)
      counter_sample(name, static_cast<double>(v));
}

std::uint64_t flow_begin(std::string_view name, std::string_view cat) {
  if constexpr (!kEnabled) return 0;
  if (!tls.ctx.active()) return 0;
  const std::uint64_t id = next_id();
  event e = here(event::phase::flow_start, std::string(name), std::string(cat));
  e.flow_id = id;
  sink::global().record(std::move(e));
  return id;
}

void flow_end(std::uint64_t flow_id, std::string_view name,
              std::string_view cat) {
  if constexpr (!kEnabled) return;
  if (flow_id == 0 || !tls.ctx.active()) return;
  event e =
      here(event::phase::flow_finish, std::string(name), std::string(cat));
  e.flow_id = flow_id;
  sink::global().record(std::move(e));
}

// --- validation -------------------------------------------------------------

namespace {

struct parsed_event {
  char ph = '?';
  double ts = 0.0;
  std::uint64_t seq = 0;
  long pid = 0;
  long tid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t flow_id = 0;
  std::string name;
  std::string link;
};

struct parsed_span {
  double begin_ts = 0.0;
  double end_ts = 0.0;
  bool closed = false;
  std::uint64_t trace_id = 0;
  std::uint64_t parent = 0;
  std::string link;
  std::string name;
  long pid = 0;
  long tid = 0;
};

}  // namespace

validation_result validate_chrome_trace(const json_value& doc) {
  validation_result r;
  const json_value* trace_events = r.arr_field(doc, "traceEvents", "document");
  if (trace_events == nullptr) return r;

  std::vector<parsed_event> events;
  std::size_t index = 0;
  for (const json_value& jv : trace_events->arr) {
    const std::string where = "event " + std::to_string(index++);
    parsed_event e;
    std::string ph;
    const json_value* args = nullptr;
    if (!r.str_field(jv, "ph", where, ph) ||
        !r.str_field(jv, "name", where, e.name) ||
        (args = r.obj_field(jv, "args", where)) == nullptr)
      continue;
    e.ph = ph.empty() ? '?' : ph[0];
    if (e.ph == 'C') {
      // Counter-track samples stand outside the span structure; validate
      // their own contract (a named series with a numeric value) here.
      ++r.counters;
      if (e.name.empty()) r.fail("counter event with an empty series name");
      if (!args->has("value") ||
          !args->at("value").is(json_value::kind::number))
        r.fail("counter '" + e.name + "' has no numeric args.value to plot");
      continue;
    }
    std::uint64_t pid = 0, tid = 0;
    if (!r.num_field(jv, "ts", where, e.ts) ||
        !r.u64_field(jv, "pid", where, pid) ||
        !r.u64_field(jv, "tid", where, tid) ||
        (jv.has("id") && !r.u64_field(jv, "id", where, e.flow_id)) ||
        !r.u64_field(*args, "seq", where, e.seq) ||
        !r.u64_field(*args, "trace_id", where, e.trace_id) ||
        !r.u64_field(*args, "span_id", where, e.span_id) ||
        !r.u64_field(*args, "parent_span", where, e.parent_span) ||
        !r.str_field(*args, "link", where, e.link))
      continue;
    e.pid = static_cast<long>(pid);
    e.tid = static_cast<long>(tid);
    events.push_back(std::move(e));
  }

  // Per-lane stack discipline for duration events.
  std::map<std::pair<long, long>, std::vector<const parsed_event*>> lanes;
  for (const parsed_event& e : events)
    if (e.ph == 'B' || e.ph == 'E') lanes[{e.pid, e.tid}].push_back(&e);

  std::map<std::uint64_t, parsed_span> spans;
  for (auto& [lane, evs] : lanes) {
    std::sort(evs.begin(), evs.end(),
              [](const parsed_event* a, const parsed_event* b) {
                return std::tie(a->ts, a->seq) < std::tie(b->ts, b->seq);
              });
    std::vector<const parsed_event*> stack;
    for (const parsed_event* e : evs) {
      if (e->ph == 'B') {
        if (spans.contains(e->span_id)) {
          r.fail("duplicate span id " + std::to_string(e->span_id));
          continue;
        }
        parsed_span s;
        s.begin_ts = e->ts;
        s.trace_id = e->trace_id;
        s.parent = e->parent_span;
        s.link = e->link;
        s.name = e->name;
        s.pid = lane.first;
        s.tid = lane.second;
        spans[e->span_id] = s;
        stack.push_back(e);
      } else {
        if (stack.empty()) {
          r.fail("unbalanced: end event '" + e->name + "' on lane (pid=" +
               std::to_string(lane.first) + ",tid=" +
               std::to_string(lane.second) + ") with no open begin");
          continue;
        }
        const parsed_event* open = stack.back();
        stack.pop_back();
        if (open->span_id != e->span_id)
          r.fail("unbalanced: end of span " + std::to_string(e->span_id) +
               " ('" + e->name + "') crosses open span " +
               std::to_string(open->span_id) + " ('" + open->name + "')");
        auto it = spans.find(e->span_id);
        if (it != spans.end()) {
          it->second.end_ts = e->ts;
          it->second.closed = true;
        }
      }
    }
    for (const parsed_event* e : stack)
      r.fail("unbalanced: span " + std::to_string(e->span_id) + " ('" +
           e->name + "') never ended");
  }

  // Parenting: orphans, trace ids, and scope containment.
  std::set<long> pids, tids;
  std::set<std::uint64_t> traces;
  for (const auto& [id, s] : spans) {
    pids.insert(s.pid);
    tids.insert(s.tid);
    traces.insert(s.trace_id);
    if (s.parent == 0) {
      ++r.roots;
      continue;
    }
    const auto pit = spans.find(s.parent);
    if (pit == spans.end()) {
      r.fail("orphaned: span " + std::to_string(id) + " ('" + s.name +
           "') has unknown parent " + std::to_string(s.parent));
      continue;
    }
    const parsed_span& p = pit->second;
    if (p.trace_id != s.trace_id)
      r.fail("span " + std::to_string(id) + " crosses traces (" +
           std::to_string(s.trace_id) + " under " +
           std::to_string(p.trace_id) + ")");
    if (s.begin_ts < p.begin_ts)
      r.fail("out of parent scope: span " + std::to_string(id) + " ('" +
           s.name + "') begins before its parent '" + p.name + "'");
    if (s.link == "scope" && p.closed && s.closed &&
        s.end_ts > p.end_ts)
      r.fail("out of parent scope: span " + std::to_string(id) + " ('" +
           s.name + "') outlives its scope parent '" + p.name + "'");
  }

  // Instants must hang off known spans; flows must pair up in order.
  std::map<std::uint64_t, double> flow_starts;
  for (const parsed_event& e : events) {
    if (e.ph == 'i') {
      ++r.instants;
      if (e.parent_span != 0 && !spans.contains(e.parent_span))
        r.fail("orphaned: instant '" + e.name + "' references unknown span " +
             std::to_string(e.parent_span));
    } else if (e.ph == 's') {
      flow_starts.emplace(e.flow_id, e.ts);
    }
  }
  for (const parsed_event& e : events) {
    if (e.ph != 'f') continue;
    const auto it = flow_starts.find(e.flow_id);
    if (it == flow_starts.end())
      r.fail("orphaned: flow finish " + std::to_string(e.flow_id) + " ('" +
           e.name + "') has no start");
    else if (e.ts < it->second)
      r.fail("flow " + std::to_string(e.flow_id) + " finishes before it starts");
    else
      ++r.flows;
  }

  r.spans = spans.size();
  r.ranks = pids.size();
  r.threads = tids.size();
  r.traces = traces.size();
  return r;
}

}  // namespace cgp::telemetry::trace
