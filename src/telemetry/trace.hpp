// Causal tracing: cross-subsystem trace propagation with Perfetto export.
//
// PR 1's aggregate metrics (telemetry.hpp) answer "how much"; this layer
// answers "why": which task, which rank, which rewrite chain, which
// symbolic-execution path produced a number or a diagnostic.  Every traced
// operation is a span with a 64-bit (trace_id, span_id) identity; spans
// nest through a thread-local context stack, and the context is captured
// and restored across asynchrony boundaries (work_stealing_pool::submit
// queues it beside the task, the distributed transports carry it in the
// message envelope), so one driver-level root span grows into a single
// causally-linked tree spanning worker threads and simulated ranks.
//
// Recording goes to a lock-sharded, bounded ring-buffer sink: one mutex
// and one fixed-capacity buffer per shard (threads hash to shards, so
// concurrent recording does not contend), a hard `max_events` cap, and a
// dropped-events counter — the sink can never grow unbounded.
//
// Export is Chrome trace-event JSON (export_chrome_trace), loadable in
// Perfetto / chrome://tracing: duration events keyed by pid = simulated
// rank and tid = recording thread, instant events for diagnostics and
// rewrite steps, and flow events (s/f) drawing the causal arrows across
// lanes.  validate_chrome_trace() re-checks an exported trace for
// balance, orphaned parents, and parent-scope violations — the contract
// `obs_export trace` and the trace tests gate on.
//
// Tracing is opt-in at the root: subsystem instrumentation (the trace
// sink of telemetry::scope, instant, flows) records only when the calling
// thread already has an active context, so untraced runs pay one
// thread-local load per hook.  Timestamps come from the one telemetry
// clock (telemetry::steady_now_ns), offset by the sink's epoch.
// Defining CGP_TELEMETRY_DISABLED compiles every hook down to a no-op.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::telemetry::trace {

// ---------------------------------------------------------------------------
// Identity and context
// ---------------------------------------------------------------------------

/// The propagated identity: which causal tree (trace_id) and which node in
/// it (span_id).  {0, 0} means "not being traced".
struct span_context {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
  friend bool operator==(const span_context&, const span_context&) = default;
};

/// Fresh process-unique 64-bit id (never 0).
[[nodiscard]] std::uint64_t next_id() noexcept;

/// The calling thread's innermost trace context ({0,0} when none).
[[nodiscard]] span_context current_context() noexcept;

/// Scoped rank override: the network simulator brackets every per-node
/// handler invocation so that node's spans land on its own pid lane.
class rank_scope {
 public:
  explicit rank_scope(int rank) noexcept;
  ~rank_scope();
  rank_scope(const rank_scope&) = delete;
  rank_scope& operator=(const rank_scope&) = delete;

 private:
  int prev_ = 0;
};

/// Scoped adoption of a captured context on the far side of an asynchrony
/// boundary (worker thread, message delivery).  Spans opened underneath
/// parent into the adopted span with link="async" — causal order is
/// guaranteed, scope containment is not.
class context_scope {
 public:
  explicit context_scope(span_context ctx) noexcept;
  ~context_scope();
  context_scope(const context_scope&) = delete;
  context_scope& operator=(const context_scope&) = delete;

 private:
  span_context prev_{};
  bool prev_adopted_ = false;
};

// ---------------------------------------------------------------------------
// Events and the sink
// ---------------------------------------------------------------------------

/// One recorded event; `ph` follows the Chrome trace-event phase alphabet.
struct event {
  enum class phase : char {
    begin = 'B',        ///< duration start
    end = 'E',          ///< duration end
    instant = 'i',      ///< point event (diagnostic, rewrite step)
    counter = 'C',      ///< counter-track sample (metric on the timeline)
    flow_start = 's',   ///< causal arrow source (submit / send)
    flow_finish = 'f',  ///< causal arrow target (task start / delivery)
  };
  /// How this event relates to parent_span: "scope" = opened inside the
  /// parent on the same thread (containment holds), "async" = parent was
  /// adopted across an asynchrony boundary (only causal order holds),
  /// "root" = no parent.
  enum class link_kind : char { root = 'r', scope = 'c', async = 'a' };

  phase ph = phase::instant;
  link_kind link = link_kind::root;
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since the sink's epoch
  std::uint64_t seq = 0;     ///< global record order (ties in ts)
  std::int32_t pid = 0;      ///< simulated rank lane
  std::uint32_t tid = 0;     ///< recording thread lane (small sequential id)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;      ///< begin/end: the span; instant: owner
  std::uint64_t parent_span = 0;  ///< begin: parent span id (0 = root)
  std::uint64_t flow_id = 0;      ///< flow_start / flow_finish pairing
  double value = 0.0;             ///< counter sample value (phase::counter)
  std::string name;
  std::string cat;
  /// Extra key/value payload (diagnostic text, rewrite before/after, ...).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Lock-sharded bounded event store.  Threads hash to shards (one mutex +
/// one fixed-capacity buffer each); when the per-shard slice of
/// `max_events` is full, new events are DROPPED (not overwritten — a
/// truncated tail is honest, a spliced one is not) and counted, here and
/// in the registry counter `telemetry.trace.dropped_events`.
class sink {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kDefaultMaxEvents = 1 << 16;

  sink() = default;
  sink(const sink&) = delete;
  sink& operator=(const sink&) = delete;

  [[nodiscard]] static sink& global();

  /// Caps the total event count (`trace.max_events`); takes effect for
  /// subsequent records.  Also published as the registry gauge
  /// `telemetry.trace.max_events`.
  void set_max_events(std::size_t max_events) noexcept;
  [[nodiscard]] std::size_t max_events() const noexcept;

  void record(event e);

  [[nodiscard]] std::uint64_t dropped() const noexcept;
  [[nodiscard]] std::size_t size() const;

  /// All events, sorted by (ts, seq) — record order.
  [[nodiscard]] std::vector<event> snapshot() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "otherData": {...}}.
  /// Load in Perfetto (ui.perfetto.dev) or chrome://tracing.
  [[nodiscard]] std::string export_chrome_trace() const;

  /// Drops all events and zeroes the dropped counter (test isolation).
  void clear();

  /// Event timestamp of a telemetry::steady_now_ns() reading: ns since
  /// the sink's epoch (0 for a reading older than the sink).
  [[nodiscard]] std::uint64_t ts_of(std::uint64_t steady_ns) const noexcept {
    return steady_ns > epoch_ns_ ? steady_ns - epoch_ns_ : 0;
  }

 private:
  struct alignas(64) shard {
    mutable std::mutex mu;
    std::vector<event> events;  // bounded by max_events_ / kShards
  };
  std::array<shard, kShards> shards_;
  std::atomic<std::size_t> max_events_{kDefaultMaxEvents};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::uint64_t epoch_ns_ = steady_now_ns();  ///< at construction
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace detail {
/// A span opened by begin_span; an inactive `ctx` recorded nothing.
struct open_span {
  span_context ctx{};
  span_context prev{};  ///< the context it replaced
  bool prev_adopted = false;
};
/// Records a begin event at `now_ns` (a telemetry::steady_now_ns()
/// reading) under the thread's current context (a new trace when there is
/// none) and makes the span current.
[[nodiscard]] open_span begin_span(std::string_view name, std::string_view cat,
                                   std::uint64_t now_ns);
/// Restores the replaced context and records the end event at `now_ns`.
void end_span(const open_span& span, std::string_view name,
              std::string_view cat, std::uint64_t now_ns,
              std::vector<std::pair<std::string, std::string>> args);
}  // namespace detail

/// RAII traced span that always records: a begin event on construction
/// and an end event on destruction, current context in between.  It is
/// for drivers opening a root and for spans opened under an adopted
/// context (message receipt); subsystem call sites use telemetry::scope
/// (scope.hpp), which records only under an active context.
class trace_span {
 public:
  explicit trace_span(std::string name, std::string cat = "span");
  ~trace_span();
  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

  /// Attaches a key/value to the span (emitted with the end event; Chrome
  /// viewers merge begin/end args onto the slice).
  void arg(std::string key, std::string value);

  [[nodiscard]] span_context context() const noexcept { return span_.ctx; }

 private:
  detail::open_span span_{};
  std::string name_;
  std::string cat_;
  std::vector<std::pair<std::string, std::string>> args_;
};

// ---------------------------------------------------------------------------
// Instant and flow events
// ---------------------------------------------------------------------------

/// Point event under the current context (no-op when untraced): rewrite
/// derivation steps, STLlint diagnostics, superstep markers.
void instant(std::string name, std::string cat = "instant",
             std::vector<std::pair<std::string, std::string>> args = {});

/// Point event that starts its own trace (a fresh trace id, no parent):
/// verdicts raised off any request path, such as watchdog stalls and
/// health SLO breaches.  Records whether or not the caller is traced.
void root_instant(std::string name, std::string cat,
                  std::vector<std::pair<std::string, std::string>> args = {});

/// One Perfetto counter-track sample ('C' event) under the current trace,
/// so metrics and spans share a single timeline: Perfetto renders every
/// distinct `name` as its own counter track plotting `value` over time.
/// No-op when the calling thread is untraced.
void counter_sample(const std::string& name, double value,
                    const std::string& cat = "counter");

/// Samples every registry counter whose name starts with `prefix` as a
/// counter track (one 'C' event per counter, all at the current
/// timestamp).  Drivers call this at phase boundaries to stitch the
/// metric trajectory into the trace.  No-op when untraced.
void sample_registry_counters(const std::string& prefix,
                              registry& reg = registry::global());

/// Emits a flow-start arrowtail at the current position and returns the
/// flow id to carry across the boundary (0 when untraced — pass it along
/// anyway; flow_finish(0, ...) is a no-op).
[[nodiscard]] std::uint64_t flow_begin(std::string_view name,
                                       std::string_view cat = "flow");

/// Emits the matching arrowhead at the adopting site.  `name`/`cat` must
/// equal the flow_begin ones (Chrome matches flows on (name, cat, id)).
void flow_end(std::uint64_t flow_id, std::string_view name,
              std::string_view cat = "flow");

// ---------------------------------------------------------------------------
// Validation (shared by `obs_export trace` and the trace tests)
// ---------------------------------------------------------------------------

struct validation_result : validation {
  std::size_t spans = 0;         ///< matched begin/end pairs
  std::size_t instants = 0;
  std::size_t counters = 0;      ///< counter-track samples ('C' events)
  std::size_t flows = 0;         ///< matched s/f pairs
  std::size_t ranks = 0;         ///< distinct pids owning spans
  std::size_t threads = 0;       ///< distinct tids owning spans
  std::size_t roots = 0;         ///< spans with no parent
  std::size_t traces = 0;        ///< distinct trace ids
};

/// Structural check of an exported Chrome trace document (as re-parsed by
/// telemetry::parse_json):
///  * per (pid, tid) lane, begin/end events obey stack discipline and
///    match by span id ("balanced");
///  * every non-root parent_span exists in the trace ("orphaned") and
///    shares the child's trace_id;
///  * link="scope" children lie within the parent's [begin, end] interval,
///    link="async" children begin no earlier than the parent begins
///    ("out of parent scope");
///  * every flow-finish has a flow-start with the same id, no later;
///  * every counter event ('C') has a non-empty name and a numeric
///    args.value (the series Perfetto plots).
[[nodiscard]] validation_result validate_chrome_trace(const json_value& doc);

}  // namespace cgp::telemetry::trace
