#include "telemetry/profile.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/symbol.hpp"

namespace cgp::telemetry::profile {

namespace {

constexpr std::uint32_t kNoNode = 0xffff'ffffu;

// ---------------------------------------------------------------------------
// Frame interning: one process-wide table; ids are first-come (and thus
// run-order dependent — exports key by name, never by id).
// ---------------------------------------------------------------------------

struct interner {
  std::mutex mu;
  core::symbol_table names;
};

interner& interns() {
  static auto* i = new interner;  // leaked: probes may outlive main()
  return *i;
}

}  // namespace

frame_id intern(std::string_view name) {
  auto& in = interns();
  std::lock_guard lock(in.mu);
  return in.names.intern(name);
}

std::string frame_name(frame_id id) {
  auto& in = interns();
  std::lock_guard lock(in.mu);
  if (id >= in.names.size())
    throw std::out_of_range("profile::frame_name: unknown frame id");
  return std::string(in.names.name(id));
}

// ---------------------------------------------------------------------------
// Per-thread call-graph storage
// ---------------------------------------------------------------------------

namespace {

// One call-graph node, keyed within its thread_state by (parent, frame).
// Accumulators are relaxed atomics: written only by the owning thread,
// read by snapshotting threads.  node lives in a std::deque so addresses
// stay stable across growth (atomics are not movable anyway).
struct graph_node {
  graph_node(frame_id f, std::uint32_t p) noexcept : frame(f), parent(p) {}
  frame_id frame;
  std::uint32_t parent;  // node index or kNoNode
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> incl{0};
  std::atomic<std::uint64_t> child_incl{0};
  std::atomic<std::uint64_t> traced{0};
};

}  // namespace

struct thread_state {
  // Guards structural growth of `nodes` against snapshot iteration; the
  // probe fast path (find + accumulate) never takes it.
  std::mutex mu;
  std::deque<graph_node> nodes;
  // (parent << 32 | frame) -> node index.  Owner-only: reads are
  // lock-free because the sole writer is the owning thread.
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::uint32_t cur = kNoNode;  // shadow-stack top; owner-only
  // Adoption memo (owner-only): a pool worker draining a fan-out adopts
  // the same submitter path for every task, so the chain walk is cached
  // and a repeat adoption is one path compare.  Node indices survive
  // profiler::reset (accumulators zero, storage stays), so the memo
  // never dangles.
  call_path adopt_cache_path;
  std::uint32_t adopt_cache_node = kNoNode;
  // Manual-clock tick counter.  Atomic (relaxed) so profiler::reset can
  // zero it from another thread without a data race.
  std::atomic<std::uint64_t> ticks{0};
};

namespace {

struct prof_global {
  std::atomic<bool> enabled{false};
  std::atomic<bool> manual{false};
  std::mutex mu;  // guards `states`
  std::vector<std::shared_ptr<thread_state>> states;
};

prof_global& g() {
  static auto* s = new prof_global;  // leaked: see interns()
  return *s;
}

thread_state& tls() {
  thread_local std::shared_ptr<thread_state> st = [] {
    auto p = std::make_shared<thread_state>();
    auto& s = g();
    std::lock_guard lock(s.mu);
    s.states.push_back(p);
    return p;
  }();
  return *st;
}

/// The frame clock: the caller's wall reading, or the next manual tick.
[[nodiscard]] std::uint64_t clock_now(thread_state& st,
                                      std::uint64_t now_ns) noexcept {
  if (g().manual.load(std::memory_order_relaxed))
    return st.ticks.fetch_add(1, std::memory_order_relaxed) + 1;
  return now_ns;
}

std::uint32_t find_or_create(thread_state& st, std::uint32_t parent,
                             frame_id f) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(parent) << 32) | static_cast<std::uint64_t>(f);
  if (auto it = st.index.find(key); it != st.index.end()) return it->second;
  std::lock_guard lock(st.mu);
  st.nodes.emplace_back(f, parent);
  const auto idx = static_cast<std::uint32_t>(st.nodes.size() - 1);
  st.index.emplace(key, idx);
  return idx;
}

}  // namespace

// ---------------------------------------------------------------------------
// Probe fast path
// ---------------------------------------------------------------------------

namespace detail {

void probe_enter(probe_rec& r, frame_id f, std::uint64_t now_ns) noexcept {
  if (f == kNoFrame) return;  // un-resolved frame id: record nothing
  if (!g().enabled.load(std::memory_order_relaxed)) return;
  thread_state& st = tls();
  r.st = &st;
  r.prev = st.cur;
  r.node = find_or_create(st, st.cur, f);
  st.cur = r.node;
  r.t0 = clock_now(st, now_ns);
}

void probe_exit(probe_rec& r, std::uint64_t now_ns) noexcept {
  if (r.node == kNoNode) return;
  thread_state& st = *r.st;
  const std::uint64_t t1 = clock_now(st, now_ns);
  const std::uint64_t d = t1 >= r.t0 ? t1 - r.t0 : 0;
  graph_node& n = st.nodes[r.node];
  n.count.fetch_add(1, std::memory_order_relaxed);
  n.incl.fetch_add(d, std::memory_order_relaxed);
  if (r.traced) n.traced.fetch_add(1, std::memory_order_relaxed);
  if (r.prev != kNoNode)
    st.nodes[r.prev].child_incl.fetch_add(d, std::memory_order_relaxed);
  st.cur = r.prev;
}

thread_state* adopt_enter(const call_path& p, std::uint32_t& prev) noexcept {
  if (!g().enabled.load(std::memory_order_relaxed)) return nullptr;
  thread_state& st = tls();
  prev = st.cur;
  if (st.adopt_cache_node != kNoNode && p == st.adopt_cache_path) {
    st.cur = st.adopt_cache_node;
    return &st;
  }
  std::uint32_t cur = kNoNode;
  for (std::size_t i = 0; i < p.size(); ++i)
    cur = find_or_create(st, cur, p[i]);
  st.cur = cur;
  st.adopt_cache_path = p;
  st.adopt_cache_node = cur;
  return &st;
}

void adopt_exit(thread_state* st, std::uint32_t prev) noexcept {
  st->cur = prev;
}

}  // namespace detail

call_path current_path() noexcept {
  call_path p;
  if (!kEnabled || !g().enabled.load(std::memory_order_relaxed)) return p;
  thread_state& st = tls();
  // Two walks: depth first, then write frames root-first in place.  A
  // stack deeper than kMaxDepth keeps its root-side frames (truncated
  // attribution beats misparented attribution).
  std::size_t depth = 0;
  for (std::uint32_t i = st.cur; i != kNoNode; i = st.nodes[i].parent) ++depth;
  if (depth == 0) return p;
  p.depth = static_cast<std::uint8_t>(
      depth < call_path::kMaxDepth ? depth : call_path::kMaxDepth);
  p.truncated = depth > call_path::kMaxDepth;
  std::size_t root_pos = depth;
  for (std::uint32_t i = st.cur; i != kNoNode; i = st.nodes[i].parent) {
    --root_pos;
    if (root_pos < call_path::kMaxDepth)
      p.frames[root_pos] = st.nodes[i].frame;
  }
  return p;
}

// ---------------------------------------------------------------------------
// profiler
// ---------------------------------------------------------------------------

profiler& profiler::global() {
  static profiler p;
  return p;
}

void profiler::enable() noexcept {
  g().enabled.store(true, std::memory_order_relaxed);
}

void profiler::disable() noexcept {
  g().enabled.store(false, std::memory_order_relaxed);
}

bool profiler::enabled() const noexcept {
  return g().enabled.load(std::memory_order_relaxed);
}

void profiler::set_manual_clock(bool manual) noexcept {
  g().manual.store(manual, std::memory_order_relaxed);
}

bool profiler::manual_clock() const noexcept {
  return g().manual.load(std::memory_order_relaxed);
}

void profiler::reset() noexcept {
  auto& s = g();
  std::lock_guard lock(s.mu);
  for (const auto& stp : s.states) {
    std::lock_guard st_lock(stp->mu);
    for (auto& n : stp->nodes) {
      n.count.store(0, std::memory_order_relaxed);
      n.incl.store(0, std::memory_order_relaxed);
      n.child_incl.store(0, std::memory_order_relaxed);
      n.traced.store(0, std::memory_order_relaxed);
    }
    stp->ticks.store(0, std::memory_order_relaxed);
  }
}

namespace {

// Intermediate merge node, keyed by frame *name* so per-thread trees
// collapse into one scheduling-independent tree.
struct merge_node {
  std::uint64_t count = 0;
  std::uint64_t incl = 0;        // measured inclusive (owner probes only)
  std::uint64_t child_incl = 0;  // measured time of direct probed children
  std::uint64_t traced = 0;
  std::map<std::string, merge_node> kids;
};

// Bottom-up conversion.  Adopted waypoint frames have structure but no
// timed invocations (incl == 0 while children carry time), so inclusive
// time is reconstituted as excl + Σ children incl; for ordinary measured
// nodes that equals the measured inclusive exactly.
profile_node to_profile_node(const std::string& name, const merge_node& m) {
  profile_node out;
  out.name = name;
  out.count = m.count;
  out.traced = m.traced;
  std::uint64_t child_sum = 0;
  for (const auto& [kid_name, kid] : m.kids) {
    profile_node c = to_profile_node(kid_name, kid);
    // Prune empty shells (e.g. waypoints whose subtree was reset away).
    if (c.count == 0 && c.incl == 0 && c.children.empty()) continue;
    child_sum += c.incl;
    out.children.push_back(std::move(c));
  }
  out.excl = m.incl > m.child_incl ? m.incl - m.child_incl : 0;
  out.incl = out.excl + child_sum;
  return out;
}

}  // namespace

profile_snapshot profiler::snapshot() const {
  auto& s = g();
  std::vector<std::shared_ptr<thread_state>> states;
  {
    std::lock_guard lock(s.mu);
    states = s.states;
  }

  merge_node root;
  for (const auto& stp : states) {
    thread_state& st = *stp;
    std::lock_guard lock(st.mu);
    const std::size_t n = st.nodes.size();
    std::vector<std::vector<std::uint32_t>> kids(n);
    std::vector<std::uint32_t> tops;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t p = st.nodes[i].parent;
      if (p == kNoNode)
        tops.push_back(i);
      else
        kids[p].push_back(i);
    }
    auto merge = [&](auto&& self, std::uint32_t idx, merge_node& dst) -> void {
      const graph_node& nd = st.nodes[idx];
      merge_node& m = dst.kids[frame_name(nd.frame)];
      m.count += nd.count.load(std::memory_order_relaxed);
      m.incl += nd.incl.load(std::memory_order_relaxed);
      m.child_incl += nd.child_incl.load(std::memory_order_relaxed);
      m.traced += nd.traced.load(std::memory_order_relaxed);
      for (const std::uint32_t c : kids[idx]) self(self, c, m);
    };
    for (const std::uint32_t t : tops) merge(merge, t, root);
  }

  profile_snapshot snap;
  snap.unit = manual_clock() ? "ticks" : "ns";
  for (const auto& [name, m] : root.kids) {
    profile_node pn = to_profile_node(name, m);
    if (pn.count == 0 && pn.incl == 0 && pn.children.empty()) continue;
    snap.roots.push_back(std::move(pn));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

namespace {

void collect_collapsed(const profile_node& n, std::string& path,
                       std::vector<std::string>& lines) {
  const std::size_t len = path.size();
  if (!path.empty()) path += ';';
  path += n.name;
  if (n.excl > 0) lines.push_back(path + ' ' + std::to_string(n.excl));
  for (const auto& c : n.children) collect_collapsed(c, path, lines);
  path.resize(len);
}

}  // namespace

std::string collapsed(const profile_snapshot& s) {
  std::vector<std::string> lines;
  std::string path;
  for (const auto& r : s.roots) collect_collapsed(r, path, lines);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

namespace {

json_value node_json(const profile_node& n, std::size_t& frames) {
  ++frames;
  json_value j = json_object();
  j.obj.emplace("name", json_string(n.name));
  j.obj.emplace("count", json_number(n.count));
  j.obj.emplace("incl", json_number(n.incl));
  j.obj.emplace("excl", json_number(n.excl));
  j.obj.emplace("traced", json_number(n.traced));
  json_value& kids = j.obj["children"] = json_array();
  for (const auto& c : n.children) kids.arr.push_back(node_json(c, frames));
  return j;
}

}  // namespace

std::string export_json(const profile_snapshot& s) {
  json_value doc = json_document("cgp.prof.v1");
  doc.obj.emplace("unit", json_string(s.unit));
  json_value& roots = doc.obj["roots"] = json_array();
  std::size_t frames = 0;
  for (const auto& r : s.roots) roots.arr.push_back(node_json(r, frames));
  doc.obj.emplace("frames", json_number(frames));
  return dump_json(doc);
}

namespace {

void accumulate_hot(const profile_node& n,
                    std::map<std::string, hot_frame>& by_name) {
  hot_frame& h = by_name[n.name];
  h.name = n.name;
  h.excl += n.excl;
  h.incl += n.incl;
  h.count += n.count;
  for (const auto& c : n.children) accumulate_hot(c, by_name);
}

}  // namespace

std::vector<hot_frame> hot_frames(const profile_snapshot& s, std::size_t n) {
  std::map<std::string, hot_frame> by_name;
  for (const auto& r : s.roots) accumulate_hot(r, by_name);
  std::vector<hot_frame> rows;
  rows.reserve(by_name.size());
  for (auto& [_, h] : by_name) rows.push_back(std::move(h));
  std::sort(rows.begin(), rows.end(), [](const hot_frame& a, const hot_frame& b) {
    if (a.excl != b.excl) return a.excl > b.excl;
    return a.name < b.name;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::string render_hot_table(const profile_snapshot& s, std::size_t n) {
  const auto rows = hot_frames(s, n);
  std::uint64_t total = 0;
  {
    std::map<std::string, hot_frame> by_name;
    for (const auto& r : s.roots) accumulate_hot(r, by_name);
    for (const auto& [_, h] : by_name) total += h.excl;
  }
  std::ostringstream out;
  out << "hot paths (top " << rows.size() << ", exclusive " << s.unit
      << "):\n";
  std::size_t rank = 1;
  for (const auto& h : rows) {
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(h.excl) /
                        static_cast<double>(total)
                  : 0.0;
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %2zu. %12llu excl (%5.1f%%)  %12llu incl  %10llu calls  %s\n",
                  rank, static_cast<unsigned long long>(h.excl), pct,
                  static_cast<unsigned long long>(h.incl),
                  static_cast<unsigned long long>(h.count), h.name.c_str());
    out << line;
    ++rank;
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

void validate_node(const json_value& n, const std::string& where,
                   std::size_t depth, profile_validation& out) {
  out.nodes += 1;
  out.max_depth = std::max(out.max_depth, depth);
  if (!n.is(json_value::kind::object)) {
    out.fail(where + ": node is not an object");
    return;
  }
  std::string name;
  std::uint64_t count = 0, incl = 0, excl = 0, traced = 0;
  if (out.str_field(n, "name", where, name) && name.empty())
    out.fail(where + ": name must be a non-empty string");
  const bool has_count = out.u64_field(n, "count", where, count);
  const bool has_incl = out.u64_field(n, "incl", where, incl);
  const bool has_excl = out.u64_field(n, "excl", where, excl);
  const bool has_traced = out.u64_field(n, "traced", where, traced);
  if (has_count && has_traced && traced > count)
    out.fail(where + ": traced exceeds count");
  if (has_incl && has_excl && excl > incl)
    out.fail(where + ": excl exceeds incl");
  const json_value* kids = out.arr_field(n, "children", where);
  if (kids == nullptr) return;
  double child_sum = 0.0;
  std::string prev_name;
  bool first = true;
  for (const json_value& c : kids->arr) {
    std::string cname = "?";
    if (c.has("name") && c.at("name").is(json_value::kind::string))
      cname = c.at("name").str;
    if (!first && cname <= prev_name)
      out.fail(where + ": children not strictly sorted by name at '" + cname +
               "'");
    first = false;
    prev_name = cname;
    if (c.has("incl") && c.at("incl").is(json_value::kind::number))
      child_sum += c.at("incl").num;
    validate_node(c, where + "/" + cname, depth + 1, out);
  }
  if (has_incl && has_excl) {
    const double want = static_cast<double>(excl) + child_sum;
    const auto got = static_cast<double>(incl);
    if (got < want - 0.5 || got > want + 0.5)
      out.fail(where + ": incl != excl + sum(children incl)");
  }
}

}  // namespace

profile_validation validate_profile(const json_value& doc) {
  profile_validation out;
  if (!out.schema_field(doc, "cgp.prof.v1")) return out;
  std::string unit;
  if (out.str_field(doc, "unit", "document", unit) && unit != "ns" &&
      unit != "ticks")
    out.fail("unit must be \"ns\" or \"ticks\"");
  const json_value* roots = out.arr_field(doc, "roots", "document");
  if (roots == nullptr) return out;
  out.roots = roots->arr.size();
  std::string prev_name;
  bool first = true;
  for (const json_value& r : roots->arr) {
    std::string rname = "?";
    if (r.has("name") && r.at("name").is(json_value::kind::string))
      rname = r.at("name").str;
    if (!first && rname <= prev_name)
      out.fail("roots not strictly sorted by name at '" + rname + "'");
    first = false;
    prev_name = rname;
    validate_node(r, rname, 1, out);
  }
  double frames = 0.0;
  if (out.num_field(doc, "frames", "document", frames) &&
      frames != static_cast<double>(out.nodes))
    out.fail("frames does not equal the recursive node count");
  return out;
}

}  // namespace cgp::telemetry::profile
