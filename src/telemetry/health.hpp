// Distributed health observatory: per-shard metric roll-ups, reservoir
// trace sampling, and declarative SLO alert rules for the million-node
// runtime (DESIGN.md §14).
//
// At 1M nodes per-node telemetry is unaffordable and flat aggregates hide
// exactly the failures that matter — one hot shard, one stalled shard.
// This layer keeps O(shards) state per backend, independent of node count:
//
//   * roll-ups — every backend run folds its traffic into a fixed set of
//     HEALTH shards (contiguous node ranges, decoupled from the engine's
//     execution shards so the sequential simulator is observable at the
//     same granularity as the threaded backends).  Per shard: routed /
//     delivered / dropped / duplicated counts, plus inbox-depth and
//     superstep-latency log2-histograms, all recorded single-threaded at
//     the round barrier from the engine's own per-round `slot_tally`
//     vector — the one count of the round's sends.
//     Shard rows fold into a backend rollup and backends fold into a run
//     rollup; `observatory::tick` mirrors everything into the registry.
//   * reservoir sampling — per-shard size-k reservoirs (algorithm R with
//     splitmix64 draws, same hash family as the fault plan) keep exemplar
//     shard-rounds instead of tracing everything.  Admissions emit
//     `health.exemplar` trace instants under the run's phase context, so
//     sampled supersteps still land inside a valid Perfetto tree.
//   * SLO rules — declarative rules (max-shard/mean skew ratio, stall
//     budget in rounds, drop-rate ceiling, convergence deadline over a
//     registry gauge) evaluated at every tick.  Each violation opens an
//     EPISODE keyed by (rule, target) and raises exactly one verdict
//     through the path the stall watchdog uses too (`live::raise`,
//     recorder.hpp); the episode re-arms when the condition clears.
//   * export — `export_json()` emits a `cgp.health.v1` document through
//     dump_json (sorted keys, shortest number round-trip), so under
//     health_options::manual_clock two identical runs export
//     byte-identical documents; `validate_health_export` is the
//     structural gate `obs_export health` runs against it.
//
// Cost discipline: a disabled observatory costs one pointer test per hook
// (net_base::run() gets a nullptr track).  An enabled one costs the
// engine two node -> slot divisions per message (the tallies themselves
// are the engine's run statistics either way) and O(health shards) per
// round.
// Synchronous engine only — the asynchronous event queue (sim backend)
// does not drive the round hooks.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::telemetry::health {

// ---------------------------------------------------------------------------
// SLO rules
// ---------------------------------------------------------------------------

enum class rule_kind : char {
  /// max over shards of (routed + delivered) vs the mean over active
  /// shards; fires past `threshold`, names the hottest shard.
  skew_ratio = 'k',
  /// a shard whose last active round lags the backend's newest round by
  /// more than `budget` rounds; names the stalled shard.
  stall_budget = 's',
  /// cumulative dropped / routed past `threshold`; names the backend.
  drop_rate = 'd',
  /// registry gauge `metric` still nonzero once `budget` ticks have
  /// elapsed; names the gauge.
  convergence_deadline = 'c',
};

[[nodiscard]] const char* to_string(rule_kind k) noexcept;
/// Parses the wire spelling used by the export; false on unknown input.
[[nodiscard]] bool parse_rule_kind(std::string_view s, rule_kind& out) noexcept;

struct slo_rule {
  rule_kind kind = rule_kind::skew_ratio;
  std::string name;           ///< unique rule id, `subsystem.event` style
  double threshold = 0.0;     ///< skew ratio / drop-rate ceiling
  std::uint64_t budget = 0;   ///< stall budget (rounds) / deadline (ticks)
  std::string metric;         ///< convergence_deadline: the watched gauge
  /// Ratio rules stay silent until the backend has routed at least this
  /// many messages (a two-message run is not a skew anomaly).
  std::uint64_t min_activity = 0;
};

/// The stock rule set the bench gate and the sampler tick use when
/// health_options::rules is left empty.
[[nodiscard]] std::vector<slo_rule> default_rules();

struct health_options {
  std::size_t shards = 16;        ///< health shards per backend (fixed)
  std::size_t reservoir_k = 8;    ///< exemplars retained per shard
  std::uint64_t seed = 42;        ///< reservoir admission hash key
  /// Deterministic mode: superstep latency is derived from the round's
  /// delivered count (a pure function of the deterministic run) instead
  /// of the steady clock, so exports are byte-identical across runs.
  bool manual_clock = false;
  std::vector<slo_rule> rules;    ///< empty = default_rules()
};

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One retained exemplar: a shard-round the reservoir kept.
struct exemplar {
  std::uint32_t shard = 0;
  std::uint64_t round = 0;      ///< engine round index (0 = start phase)
  std::uint64_t delivered = 0;  ///< deliveries scheduled out of this round
  std::uint64_t routed = 0;     ///< send attempts routed this round
  std::uint64_t latency = 0;    ///< superstep latency (see manual_clock)
  std::uint64_t seen = 0;       ///< 1-based admission index in the stream
};

/// One shard's cumulative roll-up row (also used for backend and run
/// folds, where the per-shard fields sum and last_active_round maxes).
struct shard_rollup {
  std::uint64_t routed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t last_active_round = 0;  ///< 1 + last round the shard SENT
  std::uint64_t rounds_active = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t depth_count = 0;
  std::uint64_t depth_sum = 0;
  std::array<std::uint64_t, histogram::kBuckets> latency_buckets{};
  std::array<std::uint64_t, histogram::kBuckets> depth_buckets{};

  void fold(const shard_rollup& other);
};

struct backend_snapshot {
  std::string name;
  std::size_t nodes = 0;
  std::size_t shards_used = 0;
  std::uint64_t rounds = 0;  ///< 1 + newest round observed
  std::vector<shard_rollup> shards;
  shard_rollup rollup;
  std::vector<exemplar> reservoir;  ///< all shards, (shard, seen) order
  std::uint64_t reservoir_seen = 0; ///< offers across all shards
};

/// One raised SLO violation: the shared verdict record (source "health",
/// rule = the rule's name, target e.g. "distributed.inproc.shard3", t_ms =
/// the tick's timestamp) plus what the cgp.health.v1 document adds.
struct slo_verdict : live::verdict {
  rule_kind kind = rule_kind::skew_ratio;
  std::uint64_t tick = 0;  ///< 1-based observatory tick that caught it
};

// ---------------------------------------------------------------------------
// backend_track: one backend's accumulators (engine-facing surface)
// ---------------------------------------------------------------------------

/// One health slot's traffic in one round: send attempts from its nodes
/// with their drop / duplicate verdicts, and deliveries scheduled to them
/// (once per copy: a duplicated message counts twice, a dropped one
/// never).  The synchronous engine keeps one per (source shard, slot) as
/// its only count of a send and hands the round's per-slot sums to
/// `backend_track::end_round`.
struct slot_tally {
  std::uint64_t routed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delivered = 0;

  slot_tally& operator+=(const slot_tally& o) noexcept {
    routed += o.routed;
    dropped += o.dropped;
    duplicated += o.duplicated;
    delivered += o.delivered;
    return *this;
  }
};

class observatory;

/// Owned by the observatory, handed to `net_base::run()` as a raw pointer
/// (nullptr when disabled).  `end_round` must be called from a
/// single-threaded barrier context (the engine's coordinator).
class backend_track {
 public:
  backend_track(const backend_track&) = delete;
  backend_track& operator=(const backend_track&) = delete;

  /// Round barrier, the only way traffic reaches a track: adds the
  /// round's per-slot tallies (`tally[s]` for every used shard s) to the
  /// roll-ups, records the depth and latency histograms, advances
  /// activity tracking, and offers active shard-rounds to the reservoirs.
  /// `now_ns` is the caller's reading of telemetry::steady_now_ns() at the
  /// barrier, so an engine that already reads the clock for its heartbeat
  /// does not read it twice; wall-clock superstep latency is the time
  /// between two barriers of a run (ignored under manual_clock; 0 = no
  /// reading).  `trace_id`/`parent_span` (the engine's phase context) let
  /// exemplar instants join the run's causal tree when the barrier thread
  /// has no active trace scope of its own.
  void end_round(std::size_t round, std::span<const slot_tally> tally,
                 std::uint64_t now_ns, std::uint64_t trace_id = 0,
                 std::uint64_t parent_span = 0);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t shards_used() const noexcept {
    return shards_used_;
  }
  /// The node -> health-slot mapping (out-of-range nodes clamp to the
  /// last slot).
  [[nodiscard]] std::size_t shard_of(std::size_t node) const noexcept {
    return std::min(node / width_, rows_.size() - 1);
  }

  /// Coherent copy of the cumulative state (locks out end_round briefly).
  [[nodiscard]] backend_snapshot snapshot() const;

 private:
  friend class observatory;
  backend_track(std::string name, const health_options& opts);
  /// Re-derives the node -> health-shard mapping for a run of `nodes`
  /// nodes; accumulators persist across runs on the same backend.
  void begin_run(std::size_t nodes);

  // Round-barrier state, guarded against concurrent snapshot() readers.
  struct round_row {
    shard_rollup rollup;
    std::vector<exemplar> reservoir;
    std::uint64_t seen = 0;
  };

  std::string name_;
  health_options opts_;
  std::size_t nodes_ = 0;
  std::size_t width_ = 1;        ///< nodes per health shard (>= 1)
  std::size_t shards_used_ = 0;  ///< shards with at least one node
  mutable std::mutex mu_;
  std::vector<round_row> rows_;  ///< fixed at opts_.shards
  std::uint64_t rounds_ = 0;
  std::uint64_t last_round_ns_ = 0;  ///< latency baseline (0 = none yet)
};

// ---------------------------------------------------------------------------
// observatory: the process-wide singleton
// ---------------------------------------------------------------------------

class observatory {
 public:
  observatory() = default;
  observatory(const observatory&) = delete;
  observatory& operator=(const observatory&) = delete;

  [[nodiscard]] static observatory& global();

  /// Turns the health layer on (idempotent; replaces options and drops
  /// accumulated state).  Empty opts.rules installs default_rules().
  void enable(health_options opts = {});
  /// Turns it off: subsequent runs get a nullptr track and tick() is a
  /// no-op.  Accumulated state stays readable until reset().
  void disable();
  /// Drops tracks, verdicts, episodes, mirror baselines, and the tick
  /// count; keeps enabled/options (test isolation).
  void reset();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] health_options options() const;

  /// Engine entry: returns the (created-on-first-use) track for `backend`
  /// sized for `nodes`, or nullptr when disabled.  The pointer is stable
  /// until reset()/enable().
  [[nodiscard]] backend_track* begin_run(const char* backend,
                                         std::size_t nodes);

  /// One evaluation tick at `now_ms`: mirrors every track's roll-ups into
  /// the registry (counters per shard + backend, histograms per backend),
  /// then evaluates the SLO rules over the fresh snapshots and emits one
  /// verdict per newly violated (rule, target) episode.  Returns the
  /// number of fresh verdicts.  Driven by the live sampler each sample
  /// period, and directly by deterministic drivers.
  std::size_t tick(std::uint64_t now_ms);

  [[nodiscard]] std::uint64_t ticks() const;
  [[nodiscard]] std::vector<slo_verdict> verdicts() const;
  [[nodiscard]] std::vector<backend_snapshot> snapshots() const;

  /// The `cgp.health.v1` document: options, per-backend shard rows +
  /// rollups + reservoirs, the run-level fold, the rule set, and every
  /// verdict.  Byte-identical across identical manual-clock runs.
  [[nodiscard]] std::string export_json() const;

 private:
  std::size_t evaluate_rules_locked(std::uint64_t now_ms,
                                    const std::vector<backend_snapshot>& snaps);
  void mirror_locked(const std::vector<backend_snapshot>& snaps);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  health_options opts_;
  std::map<std::string, std::unique_ptr<backend_track>> tracks_;
  std::vector<slo_verdict> verdicts_;
  std::uint64_t ticks_ = 0;
  /// Open (rule, target) episodes: one verdict per episode, armed again
  /// when the condition clears (watchdog semantics).
  std::set<std::pair<std::string, std::string>> episodes_;
  /// Mirror baselines: last absolute value pushed per registry metric.
  std::map<std::string, std::uint64_t> mirrored_;
};

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Structural check of a dumped (re-parsed) cgp.health.v1 document:
/// schema tag, rollups that equal the sum of their rows (per backend and
/// run-wide), histograms whose buckets sum to their counts, reservoirs
/// within capacity with plausible admission indices, and verdicts that
/// reference declared rules with known kinds and in-range ticks.
struct health_validation : validation {
  std::size_t backends = 0;
  std::size_t shards = 0;
  std::size_t exemplars = 0;
  std::size_t verdicts = 0;
};

[[nodiscard]] health_validation validate_health_export(const json_value& doc);

}  // namespace cgp::telemetry::health
