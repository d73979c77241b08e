#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace e2e::spans {
namespace {

constexpr int kIndexBits = 40;
constexpr std::int64_t kIndexMask = (std::int64_t{1} << kIndexBits) - 1;

struct buffer {
  std::uint32_t thread = 0;
  std::vector<record> spans;
  std::vector<std::int64_t> open;  ///< ids of this thread's open scopes
};

std::mutex g_mu;
std::vector<std::unique_ptr<buffer>> g_buffers;  // guarded by g_mu
std::deque<std::string> g_names;                  // guarded by g_mu
std::atomic<bool> g_on{false};
thread_local buffer* t_buffer = nullptr;

buffer& local() {
  if (t_buffer == nullptr) {
    auto b = std::make_unique<buffer>();
    b->spans.reserve(1 << 15);
    const std::lock_guard lock(g_mu);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer = b.get();
    g_buffers.push_back(std::move(b));
  }
  return *t_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint32_t name_id(std::string_view name) {
  const std::lock_guard lock(g_mu);
  for (std::size_t i = 0; i < g_names.size(); ++i)
    if (g_names[i] == name) return static_cast<std::uint32_t>(i);
  g_names.emplace_back(name);
  return static_cast<std::uint32_t>(g_names.size() - 1);
}

std::string name_of(std::uint32_t id) {
  const std::lock_guard lock(g_mu);
  return g_names.at(id);
}

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

scope::scope(std::uint32_t name, std::uint64_t item, std::int64_t parent) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  buffer& b = local();
  id_ = (static_cast<std::int64_t>(b.thread) << kIndexBits) |
        static_cast<std::int64_t>(b.spans.size());
  record r;
  r.id = id_;
  r.parent = parent != kNoParent ? parent
                                 : (b.open.empty() ? kNoParent : b.open.back());
  r.name = name;
  r.thread = b.thread;
  r.item = item;
  b.spans.push_back(r);
  b.open.push_back(id_);
  b.spans.back().start_ns = now_ns();
}

scope::~scope() {
  if (id_ == kNoParent) return;
  const std::int64_t end = now_ns();
  buffer& b = *t_buffer;
  b.spans[static_cast<std::size_t>(id_ & kIndexMask)].end_ns = end;
  b.open.pop_back();
}

std::vector<record> collect() {
  const std::lock_guard lock(g_mu);
  std::vector<record> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

bool write_json(const std::string& path, const std::vector<record>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"names\": [", f);
  {
    const std::lock_guard lock(g_mu);
    for (std::size_t i = 0; i < g_names.size(); ++i)
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", g_names[i].c_str());
  }
  std::fputs("],\n\"spans\": [", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const record& r = all[i];
    std::fprintf(f, "%s\n[%lld, %lld, %u, %u, %lld, %lld, %lld]",
                 i == 0 ? "" : ",", static_cast<long long>(r.id),
                 static_cast<long long>(r.parent), r.name, r.thread,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 r.item == kNoItem ? -1LL : static_cast<long long>(r.item));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

split account(const std::vector<record>& all,
              const std::vector<std::int64_t>& roots, unsigned threads) {
  split out;
  std::unordered_map<std::int64_t, std::size_t> at;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < all.size(); ++i) {
    at[all[i].id] = i;
    if (all[i].parent != kNoParent) children[all[i].parent].push_back(i);
  }
  const auto dur = [](const record& r) {
    return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  };
  const auto fail = [&out](std::string why) {
    if (out.problem.empty()) out.problem = std::move(why);
  };
  for (const std::int64_t root_id : roots) {
    const auto found = at.find(root_id);
    if (found == at.end()) {
      fail("root span missing");
      continue;
    }
    const record& root = all[found->second];
    const double window = dur(root);
    out.wall_s += window;
    out.capacity_s += window * threads;

    // Self time: walk the tree below the root, checking nesting.
    std::vector<std::size_t> stack = children[root_id];
    while (!stack.empty()) {
      const record& r = all[stack.back()];
      stack.pop_back();
      if (r.end_ns < r.start_ns) fail("span ends before it starts");
      double self = dur(r);
      for (const std::size_t c : children[r.id]) {
        const record& k = all[c];
        if (k.start_ns < r.start_ns || k.end_ns > r.end_ns)
          fail("child span '" + name_of(k.name) + "' escapes its parent");
        self -= dur(k);
        stack.push_back(c);
      }
      const std::string name = name_of(r.name);
      out.self_s[name] += self;
      ++out.count[name];
      out.busy_s += self;
    }

    // Idle time, measured independently: per thread, the part of the root
    // window that the union of its top-level spans leaves uncovered.
    std::map<std::uint32_t, std::vector<const record*>> by_thread;
    for (const std::size_t c : children[root_id])
      by_thread[all[c].thread].push_back(&all[c]);
    if (by_thread.size() > threads) fail("more working threads than declared");
    for (auto& [thread, top] : by_thread) {
      std::sort(top.begin(), top.end(), [](const record* a, const record* b) {
        return a->start_ns < b->start_ns;
      });
      std::int64_t cursor = root.start_ns;
      std::int64_t covered = 0;
      for (const record* r : top) {
        const std::int64_t lo = std::max(r->start_ns, cursor);
        const std::int64_t hi = std::min(r->end_ns, root.end_ns);
        if (hi > lo) covered += hi - lo;
        cursor = std::max(cursor, hi);
      }
      out.idle_s += window - static_cast<double>(covered) * 1e-9;
    }
    const std::size_t unused =
        threads > by_thread.size() ? threads - by_thread.size() : 0;
    out.idle_s += window * static_cast<double>(unused);
  }
  out.closure_error =
      out.capacity_s > 0
          ? std::fabs(out.busy_s + out.idle_s - out.capacity_s) / out.capacity_s
          : 1.0;
  return out;
}

}  // namespace e2e::spans
