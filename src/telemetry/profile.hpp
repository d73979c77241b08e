// Span-attributed deterministic profiler: per-thread shadow call stacks
// fed by instrumented scopes, aggregated into an interned call graph.
//
// The observatory (DESIGN.md §9) can say *that* a benchmark regressed;
// this layer says *where*.  Every telemetry::scope (scope.hpp) whose site
// names a profiler frame pushes that frame onto the calling thread's
// shadow stack; on close it charges the elapsed time to the call-graph
// node keyed by (parent node, frame), so the aggregate is a tree of call
// *paths* — gprof-style attribution without compiler instrumentation.
// Wall time is the scope's one telemetry::steady_now_ns() reading at each
// end, shared with its registry and trace sinks.  Frames reuse span
// identity from trace.hpp: each node counts how many of its invocations
// ran under an active trace context, tying profile hot paths back to the
// causal trees the trace layer records.
//
// Concurrency model (the reason this is TSan-clean at ~no cost):
//   - each thread owns a `thread_state`; only the owner pushes/pops the
//     shadow stack or inserts nodes, so the hot-path node lookup is a
//     plain hash-map find with no lock;
//   - node accumulators are relaxed atomics written only by the owner
//     and read by snapshotting threads;
//   - a per-state mutex is taken only on node *creation* and during
//     `snapshot()`, never on the frame fast path;
//   - states are `shared_ptr`s held by both the thread_local handle and
//     a global registry, so data survives thread exit (worker pools are
//     torn down before their profiles are exported).
//
// Determinism contract (what makes `cgp.prof.v1` byte-identical): in
// manual-clock mode each thread advances a *thread-local* tick counter
// on every frame entry and exit instead of using the wall reading, so
// elapsed "time" is a pure function of the frames executed on that
// thread.  Aggregation is keyed by call path
// (frame names), not by thread or intern id, so merging per-thread trees
// erases scheduling nondeterminism: as long as the same set of frame
// activations happens — on whichever worker — the merged tree, and
// therefore the sorted-key JSON from dump_json, is byte-identical.
//
// Cross-thread attribution: `current_path()` captures the submitting
// thread's stack as interned frame ids and `adopt_scope` re-roots a
// worker's frames under that path (work_stealing_pool::submit does this
// the same way it propagates trace contexts), so a flamegraph shows pool
// tasks under the benchmark that submitted them.  Adopted waypoint
// frames have no timed invocations of their own; export reconstitutes
// their inclusive time bottom-up (excl + Σ children incl), which is the
// invariant validate_profile checks.
//
// CGP_TELEMETRY_DISABLED compiles frames, adoption, and path capture
// down to no-ops (dead branches on a constexpr false).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cgp::telemetry::profile {

// ---------------------------------------------------------------------------
// Frame interning
// ---------------------------------------------------------------------------

/// Index into the process-wide frame-name table.  Intern ids are assigned
/// first-come-first-served and therefore NOT deterministic across runs;
/// exports always key by name, never by id.
using frame_id = std::uint32_t;

inline constexpr frame_id kNoFrame = 0xffff'ffffu;

/// Interns `name`, returning a stable id (idempotent per name).  Call
/// sites intern once, through a telemetry::scope_site.
[[nodiscard]] frame_id intern(std::string_view name);

/// The interned name for `id`; throws std::out_of_range on a bad id.
[[nodiscard]] std::string frame_name(frame_id id);

/// A call path from root to innermost frame, as interned ids.  Inline
/// fixed storage: capturing and copying a path never allocates, which
/// keeps the submit-side cost of cross-thread attribution inside the
/// probe-overhead budget.  Stacks deeper than kMaxDepth keep their
/// root-side frames and set `truncated` (attribution then stops at depth
/// kMaxDepth instead of misparenting).
struct call_path {
  static constexpr std::size_t kMaxDepth = 16;

  std::array<frame_id, kMaxDepth> frames{};
  std::uint8_t depth = 0;
  bool truncated = false;

  [[nodiscard]] bool empty() const noexcept { return depth == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return depth; }
  [[nodiscard]] frame_id operator[](std::size_t i) const noexcept {
    return frames[i];
  }
  [[nodiscard]] friend bool operator==(const call_path& a,
                                       const call_path& b) noexcept {
    if (a.depth != b.depth) return false;
    for (std::uint8_t i = 0; i < a.depth; ++i)
      if (a.frames[i] != b.frames[i]) return false;
    return true;
  }
};

// ---------------------------------------------------------------------------
// The profiler singleton
// ---------------------------------------------------------------------------

struct thread_state;  // internal (profile.cpp)

/// One merged call-graph node in a snapshot.  `incl` covers this frame
/// and everything below it; `excl` is `incl` minus the children's `incl`
/// (so Σ excl over the tree = total attributed time); `traced` counts
/// invocations that ran under an active trace::span_context.
struct profile_node {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t incl = 0;
  std::uint64_t excl = 0;
  std::uint64_t traced = 0;
  std::vector<profile_node> children;  ///< sorted by name, names unique
};

/// A merged, thread-erased snapshot of the call graph.
struct profile_snapshot {
  std::string unit;  ///< "ns" (wall clock) or "ticks" (manual clock)
  std::vector<profile_node> roots;  ///< sorted by name, names unique
};

class profiler {
 public:
  /// The process-wide profiler all probes feed.
  [[nodiscard]] static profiler& global();

  /// Starts collection.  Scopes opened while disabled record no frame
  /// for their whole lifetime (enable/disable mid-scope is safe).
  void enable() noexcept;
  void disable() noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  /// Manual-clock mode: every frame entry and exit advances a
  /// thread-local tick counter instead of taking the wall reading, making
  /// exports a pure function of the frame sequence (byte-identical across
  /// runs).  Only
  /// meaningful to change while disabled and quiescent.
  void set_manual_clock(bool manual) noexcept;
  [[nodiscard]] bool manual_clock() const noexcept;

  /// Zeroes every accumulator while keeping interned frames and node
  /// storage (so cached ids stay valid).  Like registry::reset, callers
  /// must be quiescent: no frame may be open anywhere.
  void reset() noexcept;

  /// Merges all per-thread trees into one name-keyed snapshot.  Safe to
  /// call while frames are open (their totals are approximate); for
  /// deterministic exports, snapshot when quiescent.
  [[nodiscard]] profile_snapshot snapshot() const;

 private:
  profiler() = default;
};

// ---------------------------------------------------------------------------
// Cross-thread adoption
// ---------------------------------------------------------------------------

namespace detail {
/// One open frame on a shadow stack (the profiler sink of
/// telemetry::scope, scope.hpp).
struct probe_rec {
  thread_state* st = nullptr;
  std::uint32_t node = 0xffff'ffffu;  ///< kNoNode ⇒ this probe records nothing
  std::uint32_t prev = 0xffff'ffffu;
  std::uint64_t t0 = 0;
  bool traced = false;
  [[nodiscard]] bool recording() const noexcept { return node != 0xffff'ffffu; }
};
/// Pushes frame `f` when the profiler is enabled.  `now_ns` is the
/// caller's telemetry::steady_now_ns() reading; in manual-clock mode the
/// thread's tick counter advances instead.
void probe_enter(probe_rec& r, frame_id f, std::uint64_t now_ns) noexcept;
void probe_exit(probe_rec& r, std::uint64_t now_ns) noexcept;
[[nodiscard]] thread_state* adopt_enter(const call_path& p,
                                        std::uint32_t& prev) noexcept;
void adopt_exit(thread_state* st, std::uint32_t prev) noexcept;
}  // namespace detail

/// The calling thread's current shadow-stack path (empty when the
/// profiler is disabled or no frame is open).  Capture this at a
/// work-submission site and hand it to adopt_scope on the far side.
[[nodiscard]] call_path current_path() noexcept;

/// Re-roots the calling thread's frames under `path` for the scope's
/// lifetime — the profile analogue of trace::context_scope.  Waypoint
/// frames created this way carry structure, not time.
class adopt_scope {
 public:
  explicit adopt_scope(const call_path& path) noexcept {
    if constexpr (kEnabled)
      if (!path.empty()) st_ = detail::adopt_enter(path, prev_);
  }
  ~adopt_scope() {
    if constexpr (kEnabled)
      if (st_ != nullptr) detail::adopt_exit(st_, prev_);
  }
  adopt_scope(const adopt_scope&) = delete;
  adopt_scope& operator=(const adopt_scope&) = delete;

 private:
  thread_state* st_ = nullptr;
  std::uint32_t prev_ = 0xffff'ffffu;
};

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

/// flamegraph.pl-compatible collapsed stacks: one `a;b;c weight` line per
/// call path with positive exclusive time, sorted lexicographically.
[[nodiscard]] std::string collapsed(const profile_snapshot& s);

/// Deterministic `cgp.prof.v1` JSON document (see validate_profile for
/// the schema contract).  Byte-identical across runs in manual-clock
/// mode because dump_json sorts keys and children sort by name.
[[nodiscard]] std::string export_json(const profile_snapshot& s);

/// One row of the hot-path table: exclusive time summed per frame name
/// across all paths it appears in.
struct hot_frame {
  std::string name;
  std::uint64_t excl = 0;
  std::uint64_t incl = 0;
  std::uint64_t count = 0;
};

/// Top `n` frames by summed exclusive time (ties broken by name).
[[nodiscard]] std::vector<hot_frame> hot_frames(const profile_snapshot& s,
                                                std::size_t n);

/// Human-readable top-N table ("the exposition"): rank, exclusive,
/// inclusive, calls, % of total exclusive, frame name.
[[nodiscard]] std::string render_hot_table(const profile_snapshot& s,
                                           std::size_t n);

/// Structural validation of a parsed cgp.prof.v1 document:
///   - schema tag and unit ("ns" | "ticks");
///   - "frames" equals the recursive node count;
///   - every node: non-empty name, numeric count/incl/excl/traced,
///     traced <= count, excl <= incl, incl == excl + Σ children incl;
///   - sibling lists sorted by name with no duplicates.
struct profile_validation : validation {
  std::size_t nodes = 0;
  std::size_t roots = 0;
  std::size_t max_depth = 0;
};

[[nodiscard]] profile_validation validate_profile(const json_value& doc);

}  // namespace cgp::telemetry::profile
