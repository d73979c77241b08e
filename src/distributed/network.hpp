// An in-process message-passing runtime — the experimental substrate for
// Section 4's distributed algorithm concept taxonomy, engineered for
// million-node simulations (DESIGN.md §13).
//
// Substitution note (see DESIGN.md §7): the paper's Section 4 classifies
// distributed algorithms along orthogonal dimensions (topology, timing,
// fault tolerance, communication).  This runtime mirrors that structure in
// its API instead of hard-wiring one simulator class:
//
//   * `net_options` is the aggregate of all orthogonal construction
//     dimensions (size, topology, timing, seed, channel order, fault
//     plan, worker count) — new dimensions extend the aggregate instead
//     of forcing positional-constructor churn;
//   * `net_base` is the shared engine: one immutable CSR topology
//     (topology.hpp) shared by every node, uids, batched arena-based
//     message routing, fault injection, and measured statistics
//     (messages, rounds, LOCAL COMPUTATION per node — the quantity the
//     paper says is "rarely accounted for");
//   * backends plug in an execution strategy and nothing else:
//     `sim_transport` runs the shards sequentially and deterministically
//     (and is the only backend implementing `timing::asynchronous` via an
//     event queue), `parallel_transport` (parallel_transport.hpp) runs
//     each shard's synchronous superstep on a work-stealing Executor, and
//     `inproc_transport` (inproc_transport.hpp) on a thread spawned for
//     that phase;
//   * the driver-facing boundary is the `Transport` concept
//     (transport.hpp), checked with an archetype in the spirit of
//     core/archetypes.hpp, so algorithm drivers provably need nothing
//     beyond the concept and run unchanged on interchangeable backends.
//
// Fault injection is unified behind one surface on every backend: crash
// stops (`crash`), Byzantine corruption hooks (`corrupt`), the
// message-level drop / duplicate / delay knobs of `fault_options`, and the
// churn schedule (randomized crash/recover per round) the membership
// scenarios soak under.
//
// Determinism contract: for `timing::synchronous`, every backend delivers
// each node's round-r mailbox in CANONICAL ORDER — sorted by (sending
// round, sender index, per-sender send sequence, duplicate-before-original)
// — and every per-message fault decision is a pure hash of (seed, sender,
// send sequence), so the decision is the same whichever thread draws it
// and in whatever order: the engine draws at the send site inside each
// shard task.  Handler invocations only touch node-local state, so a
// run's decisions and statistics are identical across backends for a
// fixed seed.
//
// Scale notes (the §13 batching protocol): a send appends straight into
// `bucket[src shard][dst shard]`, tallying it once, per health slot, in
// the source shard's accumulator.  Next superstep, each destination shard
// gathers its S buckets in source-shard order (= canonical sender order)
// by a stable counting sort of pointers into its inbox arena.  Buckets
// alternate by round parity, so one barrier per round suffices.  All
// arenas are recycled round over round, per-node RNGs are materialized
// lazily, and per-node state is flat arrays — a million-node ring is a
// handful of large allocations, not millions of small ones.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distributed/topology.hpp"
#include "telemetry/health.hpp"
#include "telemetry/scope.hpp"

namespace cgp::telemetry::live {
class heartbeat;
}  // namespace cgp::telemetry::live

namespace cgp::distributed {

/// A message: source/destination node ids, a tag, and an integer payload.
/// The trailing trace envelope carries the sender's causal context across
/// the delivery boundary (see telemetry/trace.hpp): the receiver's handler
/// span parents under `parent_span`, so a whole superstep renders as one
/// causally-linked tree across all ranks, on every backend.  All three
/// fields are 0 when the run is not being traced.
struct message {
  int src = -1;
  int dst = -1;
  std::string tag;
  std::vector<long> payload;
  std::uint64_t trace_id = 0;     ///< causal tree this send belongs to
  std::uint64_t parent_span = 0;  ///< sender's span at the send site
  std::uint64_t flow_id = 0;      ///< pairs the send arrow with delivery
};

/// Contiguous view of a node's (sorted) neighbor row in the shared CSR
/// topology.  `const std::vector<int>&` converts to it, so pre-CSR models
/// of the Transport concept (e.g. the archetype) conform unchanged.
using neighbor_span = std::span<const int>;

/// Delivery timing for the taxonomy's Timing dimension.
enum class timing { synchronous, asynchronous };

/// Message-level fault injection (the taxonomy's Fault-Tolerance
/// dimension, message axis).  Applied identically on every backend, to
/// every send, as a pure hash of (seed, sender, send sequence).
struct fault_options {
  /// Probability a message is silently lost in transit.
  double drop = 0.0;
  /// Probability a message is delivered twice (the copy draws its own
  /// delay).
  double duplicate = 0.0;
  /// Extra delivery delay in virtual-time ticks, uniform in [0, max_delay].
  /// Asynchronous mode only: a synchronous round delivers every message at
  /// the next round boundary, so construction rejects a nonzero max_delay
  /// under timing::synchronous.
  std::uint32_t max_delay = 0;
  /// Churn schedule (process axis): at every synchronous round boundary
  /// each non-crashed node goes down with probability `churn_crash`, and
  /// each churned-down node comes back with probability `churn_recover`.
  /// The draw is a pure hash of (seed, node, round), so the schedule is
  /// identical on every backend.  A churned-down node drops its mail and
  /// runs no handlers; on recovery it resumes with its process state
  /// intact (a restart-from-disk model).  Explicit `crash()` remains
  /// permanent.  Synchronous mode only.
  double churn_crash = 0.0;
  double churn_recover = 0.0;
  /// Last round the churn schedule applies to (0 = for the whole run).
  /// The soak tests let churn rage until this bound, then require the
  /// membership view to converge to the surviving set.
  std::size_t churn_until = 0;

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || max_delay != 0 ||
           churn_crash > 0.0 || churn_recover > 0.0;
  }
  [[nodiscard]] bool churn() const noexcept {
    return churn_crash > 0.0 || churn_recover > 0.0;
  }
};

/// Aggregate of every orthogonal construction dimension; replaces the old
/// positional `network(n, topo, mode, seed, fifo)` constructor (see the
/// README migration table).  Designated initializers name each dimension
/// at the call site: `sim_transport net({.nodes = 8, .topo =
/// topology::ring});`.
struct net_options {
  std::size_t nodes = 1;
  topology topo = topology::ring;
  timing mode = timing::synchronous;
  std::uint32_t seed = 42;
  /// Asynchronous delivery is per-link FIFO (the channel assumption
  /// algorithms like Peterson's election rely on); false models fully
  /// reordering channels.  Synchronous delivery is inherently ordered by
  /// the round barrier, so the flag only affects asynchronous runs.
  bool fifo_links = true;
  /// parallel_transport / inproc_transport only: worker thread count
  /// (0 = auto, at least 2).
  unsigned workers = 0;
  fault_options faults{};

  /// The worker count after resolving the auto default: hardware
  /// concurrency, at least 2 so concurrency is always exercised.
  [[nodiscard]] unsigned resolved_workers() const noexcept {
    return workers != 0 ? workers
                        : std::max(2u, std::thread::hardware_concurrency());
  }
};

class net_base;

/// Per-node view of the network handed to process handlers.
class context {
 public:
  context(net_base& net, int id) : net_(&net), id_(id) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  /// The node's unique identifier (a pseudonymized uid, not its index).
  [[nodiscard]] long uid() const;
  [[nodiscard]] neighbor_span neighbors() const;
  [[nodiscard]] std::size_t round() const;
  [[nodiscard]] std::size_t node_count() const;

  /// Sends to a neighbor; throws if `to` is not adjacent (the runtime
  /// enforces the topology).  The tag is viewed, not copied, until the
  /// message is materialized; the payload is moved through to the bucket.
  void send(int to, std::string_view tag, std::vector<long> payload = {});

  /// Charges extra local computation steps to this node (Section 4: "local
  /// computation at a node is rarely accounted for").
  void charge(std::size_t steps);

  /// Records a decision (e.g. "leader", "parent") for this node.
  void decide(const std::string& key, long value);

  /// Deterministic per-node randomness (for randomized strategies).
  /// Materialized lazily — a million-node run pays for engines only at
  /// the nodes that actually draw.
  [[nodiscard]] std::mt19937& rng();

 private:
  net_base* net_;
  int id_;
};

/// A distributed process: implement the handlers, register with a backend.
class process {
 public:
  virtual ~process() = default;
  /// Invoked once before the first round / event.
  virtual void start(context& ctx) { (void)ctx; }
  /// Invoked on message delivery.
  virtual void receive(context& ctx, const message& m) = 0;
  /// Synchronous mode only: invoked once per round after deliveries.
  virtual void on_round(context& ctx) { (void)ctx; }
};

using process_factory = std::function<std::unique_ptr<process>(int id)>;

/// Run statistics — the taxonomy's measured performance data.
/// `messages_total` counts send attempts (the algorithm's message
/// complexity); injected faults are broken out separately: dropped sends
/// are counted in the total but never delivered, duplicated deliveries are
/// NOT in the total (the extra copy shows up in `messages_duplicated` and
/// in the receiver's per-node count).
///
/// The per-node arrays are sized by node count — query them through the
/// span accessors (or the scalar per-node lookups), which are O(1) and
/// allocation-free even at a million nodes.  Copying the whole struct
/// copies the arrays; `net_base::stats()` hands out a const reference for
/// post-run queries that should not.
struct run_stats {
  std::size_t messages_total = 0;
  std::size_t messages_dropped = 0;
  std::size_t messages_duplicated = 0;
  std::map<std::string, std::size_t> messages_by_tag;
  std::size_t rounds = 0;
  std::size_t local_steps = 0;
  std::vector<std::size_t> local_steps_per_node;
  std::vector<std::size_t> messages_sent_per_node;
  std::vector<std::size_t> messages_received_per_node;

  /// Allocation-free views of the per-node arrays (the O(n)-copy fix:
  /// accessors never clone a million-entry vector).
  [[nodiscard]] std::span<const std::size_t> local_steps_span()
      const noexcept {
    return local_steps_per_node;
  }
  [[nodiscard]] std::span<const std::size_t> sent_span() const noexcept {
    return messages_sent_per_node;
  }
  [[nodiscard]] std::span<const std::size_t> received_span() const noexcept {
    return messages_received_per_node;
  }

  /// Messages sent with `tag` (0 when the tag never appeared).
  [[nodiscard]] std::size_t messages_for(const std::string& tag) const {
    const auto it = messages_by_tag.find(tag);
    return it == messages_by_tag.end() ? 0 : it->second;
  }
  /// Send attempts originating at `node` (mirrors messages_for; throws a
  /// descriptive std::out_of_range for an unknown node).
  [[nodiscard]] std::size_t messages_sent_by(int node) const {
    return per_node(messages_sent_per_node, node, "messages_sent_by");
  }
  /// Deliveries (including duplicated copies) at `node`.
  [[nodiscard]] std::size_t messages_received_by(int node) const {
    return per_node(messages_received_per_node, node, "messages_received_by");
  }
  /// All tags observed in this run, sorted.
  [[nodiscard]] std::vector<std::string> tags() const {
    std::vector<std::string> out;
    out.reserve(messages_by_tag.size());
    for (const auto& [tag, count] : messages_by_tag) out.push_back(tag);
    return out;
  }

 private:
  [[nodiscard]] static std::size_t per_node(
      const std::vector<std::size_t>& v, int node, const char* what) {
    if (node < 0 || static_cast<std::size_t>(node) >= v.size())
      throw std::out_of_range(std::string(what) + ": node " +
                              std::to_string(node) +
                              " out of range for a network of " +
                              std::to_string(v.size()) + " nodes");
    return v[static_cast<std::size_t>(node)];
  }
};

/// The shared engine behind every transport backend: the CSR topology,
/// uids, the canonical synchronous superstep loop, the asynchronous event
/// queue, the unified fault surface, decisions, and statistics.  Backends
/// override only `for_each_shard` with their execution strategy
/// (everything a shard task touches is node-local — the shard's slice of
/// the arenas, rngs, stats slots and decision maps — so the strategy may
/// be concurrent), `backend_name`, and `supports_asynchronous`.
class net_base {
 public:
  virtual ~net_base() = default;
  net_base(const net_base&) = delete;
  net_base& operator=(const net_base&) = delete;

  /// Installs the algorithm (one process per node).
  void spawn(const process_factory& factory);

  /// Overrides the seeded uid permutation (e.g. to build the adversarial
  /// descending-uid layout that realizes LCR's Theta(n^2) worst case).
  /// Must be a permutation-like assignment of distinct values.
  void set_uids(std::vector<long> uids);

  /// Crash-stops a node before the given round (fault injection).  Under
  /// timing::asynchronous `at_round` is measured in scheduler ticks; 0
  /// crashes the node before the run starts in either mode.  Permanent —
  /// unlike churn, a crashed node never recovers.
  void crash(int node, std::size_t at_round = 0);

  /// Installs a Byzantine corruption hook: called for every message sent by
  /// `node`; may alter the payload.
  void corrupt(int node, std::function<void(message&)> hook);

  /// Runs to quiescence (no messages in flight and no pending events) or
  /// `max_rounds`, whichever first.  Returns the statistics (by value —
  /// use stats() for allocation-free post-run queries).
  run_stats run(std::size_t max_rounds = 100000);

  /// The statistics of every run on this transport so far, without
  /// copying the per-node arrays: the message totals, `messages_by_tag`,
  /// `local_steps` and the per-node arrays accumulate over runs, while
  /// `rounds` is the latest run's.
  [[nodiscard]] const run_stats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return topo_.node_count();
  }
  [[nodiscard]] neighbor_span neighbors_of(int id) const {
    return topo_.neighbors(check_node(id, "neighbors_of"));
  }
  [[nodiscard]] long uid_of(int id) const {
    return uids_[check_node(id, "uid_of")];
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return topo_.edge_count();
  }
  /// The shared immutable CSR topology.
  [[nodiscard]] const csr_topology& topo() const noexcept { return topo_; }
  [[nodiscard]] const net_options& options() const noexcept { return opts_; }

  /// Whether a node is currently out of service (explicitly crashed or
  /// churned down) — the ground truth the membership soak tests compare
  /// gossip views against.
  [[nodiscard]] bool is_down(int node) const {
    const std::size_t i = check_node(node, "is_down");
    return crashed_[i] || churn_down_[i] != 0;
  }

  /// Decisions recorded via context::decide.
  [[nodiscard]] std::optional<long> decision(int node,
                                             const std::string& key) const;
  /// All nodes that decided `key` to some value.
  [[nodiscard]] std::vector<int> deciders(const std::string& key) const;
  /// Every decision of the run, keyed by (node, key) — the backend-parity
  /// tests compare these wholesale.
  [[nodiscard]] std::map<std::pair<int, std::string>, long> all_decisions()
      const;

 protected:
  /// `shards` is the unit of execution parallelism: nodes live in
  /// contiguous shards, senders append to their shard's bucket arenas, and
  /// `for_each_shard` runs one task per shard.  Sequential backends pass 1.
  explicit net_base(const net_options& opts, std::size_t shards = 1);

  /// Execution strategy: invoke `fn(s)` once for every shard index in
  /// [0, shard_count()) and return when all have finished, rethrowing the
  /// first exception.  All invocations of one barrier phase may run
  /// concurrently; `fn` only touches shard-local state.
  virtual void for_each_shard(const std::function<void(std::size_t)>& fn) = 0;

  /// Short backend label ("sim", "parallel", "inproc") for traces and
  /// metrics.
  [[nodiscard]] virtual const char* backend_name() const noexcept = 0;

  /// Whether this backend implements timing::asynchronous (only the
  /// deterministic event-queue simulator does).
  [[nodiscard]] virtual bool supports_asynchronous() const noexcept {
    return false;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }

 private:
  friend class context;

  /// Deterministic per-message fault plan: a pure function of the run seed
  /// and the message's (sender, send-sequence) identity.
  struct fault_draw {
    bool drop = false;
    bool dup = false;
  };
  [[nodiscard]] fault_draw draw_faults(std::size_t src,
                                       std::uint64_t seq) const noexcept;

  /// Synchronous send sink for a validated, corrupted, trace-stamped
  /// message: draws the hash fault plan, tallies the send once in the
  /// sender shard's slot tallies and appends the survivors (duplicate copy
  /// first) to the sender shard's bucket for the destination shard — all
  /// shard-local, on the sending shard's task.
  void enqueue_sync(std::size_t src, std::uint64_t seq, message&& m);

  /// One node's synchronous superstep: deliver `inbox` in canonical order,
  /// then on_round.  Down nodes let their mail rot.  Adopts the enclosing
  /// phase span's trace context when executing on a worker thread.
  void node_superstep(std::size_t i, std::span<const message* const> inbox);

  /// One node's start-phase slot (trace adoption + accounting + start()).
  void run_node_start(std::size_t i);

  /// Applies the deferred-crash schedule and the churn hash draws for the
  /// current `round_`.  Coordinator only, between phases.
  void apply_round_faults();

  [[nodiscard]] std::size_t shard_of(std::size_t node) const noexcept {
    return node / shard_width_;
  }
  /// The slot a node's traffic is tallied in: its health shard when the
  /// observatory is on, else the one slot.
  [[nodiscard]] std::size_t slot_of(std::size_t node) const noexcept {
    return health_ ? health_->shard_of(node) : 0;
  }
  /// The contiguous [begin, end) node range of shard `s`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t s) const noexcept {
    const std::size_t lo = std::min(node_count(), s * shard_width_);
    return {lo, std::min(node_count(), lo + shard_width_)};
  }
  [[nodiscard]] bool all_down() const noexcept {
    return down_count_ == node_count();
  }

  [[nodiscard]] std::size_t check_node(int id, const char* what) const {
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.node_count())
      throw std::out_of_range(std::string(what) + ": node " +
                              std::to_string(id) +
                              " out of range for a network of " +
                              std::to_string(topo_.node_count()) + " nodes");
    return static_cast<std::size_t>(id);
  }

  // Worker tasks only ever touch node-local slots; the scalar fields are
  // coordinator territory.
  net_options opts_;
  csr_topology topo_;
  std::vector<long> uids_;
  std::vector<std::unique_ptr<process>> procs_;
  std::vector<bool> crashed_;             ///< explicit crash-stop (permanent)
  std::vector<unsigned char> churn_down_; ///< churn schedule (recoverable)
  std::vector<std::size_t> crash_round_;
  std::size_t down_count_ = 0;
  bool have_deferred_crashes_ = false;
  std::map<int, std::function<void(message&)>> corruption_;
  std::vector<std::uint64_t> send_seq_;   ///< per-sender send sequence

  std::size_t round_ = 0;
  run_stats stats_;
  std::vector<std::map<std::string, long>> decisions_;  ///< per node

  // Stall-watchdog heartbeat for the current run(): registered at run
  // entry, marked busy for the run's duration, beaten once per superstep
  // (sync) / delivered event batch (async), released at run exit.
  std::shared_ptr<telemetry::live::heartbeat> run_heartbeat_;

  // Health-observatory track for the current run (telemetry/health.hpp):
  // nullptr unless the observatory is enabled, acquired at run() entry.
  // It sets the slot mapping of the send tallies and receives the round's
  // per-slot sums in end_round, once per synchronous round on the
  // coordinator, with identical round indices on every backend.
  telemetry::health::backend_track* health_ = nullptr;

  // Trace context of the current phase span (start phase / round span),
  // captured on the coordinator so worker-thread tasks can adopt it and
  // keep the whole superstep in one causal tree.
  telemetry::trace::span_context phase_{};
  /// True off the coordinator, where phase_ is not already current (a
  /// worker thread has no ambient context to parent the node's spans).
  [[nodiscard]] bool adopts_phase() const noexcept {
    return phase_.active() && !(telemetry::trace::current_context() == phase_);
  }

  // This backend's phase scopes (profiler frames
  // distributed.<backend>.{superstep,route,deliver,fault}), resolved at
  // run() entry where backend_name() dispatches virtually.
  telemetry::scope_site superstep_site_;
  telemetry::scope_site route_site_;
  telemetry::scope_site deliver_site_;
  telemetry::scope_site fault_site_;

  // Handler-side entry points (called from per-node tasks; thread-safe by
  // node-locality, see for_each_shard).
  void do_send(int from, int to, std::string_view tag,
               std::vector<long>&& payload);
  void charge_node(int node, std::size_t steps);
  void decide_node(int node, const std::string& key, long value);
  [[nodiscard]] std::mt19937& node_rng(std::size_t node);

  void deliver_to(std::size_t dst, const message& m);

  // Base synchronous engine: one shard's round slice — gather the mail
  // the previous round bucketed for this shard (stable counting sort by
  // destination), then run every node's superstep over its span.
  void shard_superstep(std::size_t s);
  // Coordinator step after a phase: sums the source shards' slot tallies
  // into round_tally_ (zeroing them) and adds the sums to the run totals
  // and the live fault counter.  Returns the deliveries the phase
  // scheduled.
  std::size_t fold_sends();
  void schedule_async(message&& m, std::uint64_t extra_delay);

  void run_synchronous(std::size_t max_rounds);
  void run_asynchronous(std::size_t max_rounds);
  void run_start_phase();
  void finalize_stats();

  std::size_t shard_count_ = 1;
  std::size_t shard_width_ = 1;

  std::mt19937 rng_;  ///< topology/uid/latency randomness
  std::uint64_t fault_seed_ = 0;  ///< per-message fault hash key
  std::uint64_t churn_seed_ = 0;  ///< per-(node, round) churn hash key
  std::mt19937 async_fault_rng_;  ///< async delay draws (sim only)
  /// Lazily materialized per-node engines, owned by the node's shard (one
  /// map per shard so concurrent shards never share a bucket).
  std::vector<std::unordered_map<std::uint32_t, std::mt19937>> shard_rngs_;

  // Synchronous engine state, all recycled round over round.  One send
  // accumulator per source shard, touched only by that shard's task
  // (cache-aligned so shards never share a line): round r's sends fill
  // buckets[r & 1][dst shard], which destination shards gather in round
  // r + 1 while the new sends fill the other set.  The slot tallies are
  // the engine's only count of a synchronous send.
  struct alignas(64) shard_sends {
    std::array<std::vector<std::vector<message>>, 2> buckets;
    std::map<std::string, std::size_t> by_tag;  ///< this run
    std::vector<telemetry::health::slot_tally> tally;  ///< per slot, phase
  };
  std::vector<shard_sends> sends_;                    ///< per source shard
  /// The last phase's per-slot sums, handed to the health track.
  std::vector<telemetry::health::slot_tally> round_tally_;
  std::vector<std::vector<const message*>> inbox_;  ///< per dst shard
  std::vector<std::uint32_t> inbox_begin_;  ///< per node: span start
  std::vector<std::uint32_t> inbox_end_;    ///< per node: span end
  std::size_t pending_count_ = 0;

  // Asynchronous engine (sim backend only): (delivery_time, sequence,
  // message) min-heap.
  struct event {
    std::uint64_t time;
    std::uint64_t seq;
    message msg;
    friend bool operator>(const event& a, const event& b) {
      return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
    }
  };
  std::priority_queue<event, std::vector<event>, std::greater<>> events_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::map<std::pair<int, int>, std::uint64_t> link_last_delivery_;
};

/// The deterministic sequential simulator (the seed's `network`, recast as
/// one backend of the Transport concept).  Implements both timing modes.
class sim_transport final : public net_base {
 public:
  explicit sim_transport(const net_options& opts) : net_base(opts, 1) {}

 protected:
  void for_each_shard(const std::function<void(std::size_t)>& fn) override {
    for (std::size_t s = 0; s < shard_count(); ++s) fn(s);
  }
  [[nodiscard]] const char* backend_name() const noexcept override {
    return "sim";
  }
  [[nodiscard]] bool supports_asynchronous() const noexcept override {
    return true;
  }
};

}  // namespace cgp::distributed
