#include "distributed/network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/mix64.hpp"
#include "telemetry/health.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/watchdog.hpp"

namespace cgp::distributed {

namespace {

// Live-sampler feeds: resolved once, updated on the engine's hot paths so
// a running sampler sees per-period message/fault rates and the current
// in-flight backlog instead of only post-run totals.
telemetry::gauge& in_flight_gauge() {
  static telemetry::gauge& g = telemetry::registry::global().get_gauge(
      "distributed.network.in_flight");
  return g;
}

telemetry::counter& live_routed_counter() {
  static telemetry::counter& c = telemetry::registry::global().get_counter(
      "distributed.network.live_messages_routed");
  return c;
}

telemetry::counter& live_faults_counter() {
  static telemetry::counter& c = telemetry::registry::global().get_counter(
      "distributed.network.live_faults");
  return c;
}

// core::mix64 is the per-message / per-(node, round) fault hash.
// Stateless, so a fault decision does not depend on the order draws
// happen in: the property that lets every backend decide faults at
// concurrent send sites and still match the sequential simulator bit for
// bit.
using core::mix64;

/// Uniform in [0, 1) from the hash's top 53 bits.
[[nodiscard]] constexpr double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

// --- context ----------------------------------------------------------------

long context::uid() const { return net_->uid_of(id_); }
neighbor_span context::neighbors() const {
  return net_->neighbors_of(id_);
}
std::size_t context::round() const { return net_->round_; }
std::size_t context::node_count() const { return net_->node_count(); }

void context::send(int to, std::string_view tag, std::vector<long> payload) {
  net_->do_send(id_, to, tag, std::move(payload));
}

void context::charge(std::size_t steps) { net_->charge_node(id_, steps); }

void context::decide(const std::string& key, long value) {
  net_->decide_node(id_, key, value);
}

std::mt19937& context::rng() {
  return net_->node_rng(static_cast<std::size_t>(id_));
}

// --- construction -----------------------------------------------------------

net_base::net_base(const net_options& opts, std::size_t shards)
    : opts_(opts),
      uids_(opts.nodes),
      crashed_(opts.nodes, false),
      churn_down_(opts.nodes, 0),
      crash_round_(opts.nodes, 0),
      send_seq_(opts.nodes, 0),
      decisions_(opts.nodes),
      rng_(opts.seed),
      fault_seed_(static_cast<std::uint64_t>(opts.seed) ^
                  0x9e3779b97f4a7c15ull),
      churn_seed_(mix64(static_cast<std::uint64_t>(opts.seed) ^
                        0xc2b2ae3d27d4eb4full)),
      async_fault_rng_(opts.seed ^ 0x9e3779b97f4a7c15ull) {
  const std::size_t n = opts.nodes;
  if (n == 0) throw std::invalid_argument("net_options: need at least one node");
  // Fault knobs are validated here, once, so every backend shares the same
  // contract and a bad configuration fails at construction instead of
  // silently skewing a run.  (NaN fails both comparisons.)
  const fault_options& f = opts.faults;
  if (!(f.drop >= 0.0 && f.drop <= 1.0)) {
    throw std::invalid_argument(
        "net_options: faults.drop must be a probability in [0, 1], got " +
        std::to_string(f.drop));
  }
  if (!(f.duplicate >= 0.0 && f.duplicate <= 1.0)) {
    throw std::invalid_argument(
        "net_options: faults.duplicate must be a probability in [0, 1], got " +
        std::to_string(f.duplicate));
  }
  if (!(f.churn_crash >= 0.0 && f.churn_crash <= 1.0) ||
      !(f.churn_recover >= 0.0 && f.churn_recover <= 1.0)) {
    throw std::invalid_argument(
        "net_options: faults.churn_crash/churn_recover must be "
        "probabilities in [0, 1]");
  }
  if (opts.mode == timing::synchronous && f.max_delay != 0) {
    throw std::invalid_argument(
        "net_options: faults.max_delay requires timing::asynchronous — a "
        "synchronous round delivers every message at the next round "
        "boundary, so per-message delay has no defined meaning there");
  }
  if (opts.mode == timing::asynchronous && f.churn()) {
    throw std::invalid_argument(
        "net_options: churn_crash/churn_recover are drawn per synchronous "
        "round boundary; timing::asynchronous has no rounds to draw at");
  }
  topo_ = build_topology(opts.topo, n, rng_);
  // uids: a seeded permutation of 1..n.
  std::iota(uids_.begin(), uids_.end(), 1L);
  std::shuffle(uids_.begin(), uids_.end(), rng_);
  // Shard layout: contiguous node ranges, one send accumulator (with its
  // two bucket sets) and one inbox arena per shard.
  shard_count_ = std::max<std::size_t>(1, std::min(shards, n));
  shard_width_ = (n + shard_count_ - 1) / shard_count_;
  shard_rngs_.resize(shard_count_);
  sends_.resize(shard_count_);
  for (shard_sends& out : sends_)
    for (auto& set : out.buckets) set.resize(shard_count_);
  inbox_.resize(shard_count_);
  inbox_begin_.assign(n, 0);
  inbox_end_.assign(n, 0);
  stats_.local_steps_per_node.assign(n, 0);
  stats_.messages_sent_per_node.assign(n, 0);
  stats_.messages_received_per_node.assign(n, 0);
}

void net_base::spawn(const process_factory& factory) {
  procs_.clear();
  procs_.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i)
    procs_.push_back(factory(static_cast<int>(i)));
}

void net_base::set_uids(std::vector<long> uids) {
  if (uids.size() != node_count())
    throw std::invalid_argument("set_uids: need one uid per node");
  uids_ = std::move(uids);
}

void net_base::crash(int node, std::size_t at_round) {
  const std::size_t i = check_node(node, "crash");
  crash_round_[i] = at_round;
  if (at_round == 0) {
    if (!crashed_[i]) {
      crashed_[i] = true;
      if (churn_down_[i] == 0) ++down_count_;
    }
  } else {
    have_deferred_crashes_ = true;
  }
}

void net_base::corrupt(int node, std::function<void(message&)> hook) {
  corruption_[static_cast<int>(check_node(node, "corrupt"))] =
      std::move(hook);
}

std::mt19937& net_base::node_rng(std::size_t node) {
  // Lazy: a million-node network materializes engines only at nodes that
  // draw.  Each shard owns its map, so concurrent shard tasks never touch
  // the same container; the seed is a function of (run seed, node) alone,
  // so laziness cannot perturb determinism or backend parity.
  auto& shard_map = shard_rngs_[shard_of(node)];
  const auto key = static_cast<std::uint32_t>(node);
  auto it = shard_map.find(key);
  if (it == shard_map.end())
    it = shard_map
             .emplace(key, std::mt19937(opts_.seed +
                                        1000003u * static_cast<std::uint32_t>(
                                                       node)))
             .first;
  return it->second;
}

// --- the deterministic fault plan -------------------------------------------

net_base::fault_draw net_base::draw_faults(std::size_t src,
                                           std::uint64_t seq) const noexcept {
  const fault_options& f = opts_.faults;
  fault_draw d;
  if (f.drop <= 0.0 && f.duplicate <= 0.0) return d;
  const std::uint64_t key =
      mix64(fault_seed_ ^ mix64(static_cast<std::uint64_t>(src) ^
                                seq * 0xd6e8feb86659fd93ull));
  d.drop = f.drop > 0.0 && unit_interval(key) < f.drop;
  d.dup = f.duplicate > 0.0 &&
          unit_interval(mix64(key ^ 0xa3c59ac2ee4c9d7bull)) < f.duplicate;
  return d;
}

void net_base::apply_round_faults() {
  if (have_deferred_crashes_) {
    for (std::size_t i = 0; i < node_count(); ++i) {
      if (crash_round_[i] != 0 && round_ >= crash_round_[i] && !crashed_[i]) {
        crashed_[i] = true;
        if (churn_down_[i] == 0) ++down_count_;
      }
    }
  }
  const fault_options& f = opts_.faults;
  if (!f.churn()) return;
  if (f.churn_until != 0 && round_ > f.churn_until) return;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (crashed_[i]) continue;  // explicit crashes are permanent
    const double u = unit_interval(
        mix64(churn_seed_ ^ mix64(static_cast<std::uint64_t>(i) ^
                                  static_cast<std::uint64_t>(round_) *
                                      0x9e3779b97f4a7c15ull)));
    if (churn_down_[i] != 0) {
      if (f.churn_recover > 0.0 && u < f.churn_recover) {
        churn_down_[i] = 0;
        --down_count_;
      }
    } else if (f.churn_crash > 0.0 && u < f.churn_crash) {
      churn_down_[i] = 1;
      ++down_count_;
    }
  }
}

// --- sending ----------------------------------------------------------------

void net_base::do_send(int from, int to, std::string_view tag,
                       std::vector<long>&& payload) {
  const std::size_t src = check_node(from, "send");
  if (crashed_[src] || churn_down_[src] != 0) return;
  if (!topo_.is_adjacent(from, to))
    throw std::invalid_argument(
        "send: node " + std::to_string(from) + " is not adjacent to " +
        std::to_string(to) + " in this topology");
  message m{from, to, std::string(tag), std::move(payload)};
  if (auto it = corruption_.find(from); it != corruption_.end())
    it->second(m);
  if constexpr (telemetry::kEnabled) {
    // Stamp the trace envelope: the sender's current span becomes the
    // causal parent of the delivery, and a flow arrow links the two.
    const auto ctx = telemetry::trace::current_context();
    if (ctx.active()) {
      m.trace_id = ctx.trace_id;
      m.parent_span = ctx.span_id;
      m.flow_id = telemetry::trace::flow_begin("msg." + m.tag, "distributed");
    }
  }
  const std::uint64_t seq = send_seq_[src]++;
  if (opts_.mode == timing::synchronous) {
    enqueue_sync(src, seq, std::move(m));
    return;
  }
  // Asynchronous engine (single-threaded): count and schedule immediately.
  ++stats_.messages_total;
  ++stats_.messages_by_tag[m.tag];
  ++stats_.messages_sent_per_node[src];
  const fault_options& f = opts_.faults;
  const fault_draw d = draw_faults(src, seq);
  if (d.drop) {
    telemetry::profile::probe fault_probe(prof_fault_frame_);
    ++stats_.messages_dropped;
    live_faults_counter().add();
    return;
  }
  const auto extra = [&]() -> std::uint64_t {
    if (f.max_delay == 0) return 0;
    std::uniform_int_distribution<std::uint64_t> delay(0, f.max_delay);
    return delay(async_fault_rng_);
  };
  if (d.dup) {
    telemetry::profile::probe fault_probe(prof_fault_frame_);
    ++stats_.messages_duplicated;
    live_faults_counter().add();
    schedule_async(message(m), extra());
  }
  schedule_async(std::move(m), extra());
}

void net_base::enqueue_sync(std::size_t src, std::uint64_t seq, message&& m) {
  // Runs on the sender's shard task and touches only that shard's
  // accumulator and the sender's own slots.  Shard tasks run their nodes
  // in ascending order, so each bucket fills in canonical sender order.
  shard_sends& out = sends_[shard_of(src)];
  ++out.total;
  ++out.by_tag[m.tag];
  ++stats_.messages_sent_per_node[src];
  const fault_draw d = draw_faults(src, seq);
  const bool dup = d.dup && !d.drop;
  const auto tally = [&out, this](std::size_t node) -> health_tally& {
    const std::size_t h = health_->shard_of(node);
    health_tally& t = out.health[h];
    if (t.routed == 0 && t.delivered == 0)
      out.touched.push_back(static_cast<std::uint32_t>(h));
    return t;
  };
  if (health_) {
    health_tally& t = tally(src);
    ++t.routed;
    t.dropped += d.drop;
    t.duplicated += dup;
  }
  if (d.drop) {
    telemetry::profile::probe fault_probe(prof_fault_frame_);
    ++out.dropped;
    ++out.faults;
    return;
  }
  const auto dst = static_cast<std::size_t>(m.dst);
  if (health_) tally(dst).delivered += 1 + dup;
  auto& bucket = out.buckets[round_ & 1][shard_of(dst)];
  if (dup) {
    telemetry::profile::probe fault_probe(prof_fault_frame_);
    ++out.duplicated;
    ++out.faults;
    bucket.push_back(m);  // the copy is delivered BEFORE the original
  }
  bucket.push_back(std::move(m));
  out.scheduled += 1 + dup;
}

void net_base::schedule_async(message&& m, std::uint64_t extra_delay) {
  std::uniform_int_distribution<std::uint64_t> delay(1, 8);
  std::uint64_t t = now_ + delay(rng_) + extra_delay;
  if (opts_.fifo_links) {
    auto& last = link_last_delivery_[{m.src, m.dst}];
    t = std::max(t, last + 1);
    last = t;
  }
  events_.push(event{t, seq_++, std::move(m)});
}

std::size_t net_base::fold_sends() {
  std::size_t scheduled = 0;
  std::size_t faults = 0;
  for (shard_sends& out : sends_) {
    scheduled += std::exchange(out.scheduled, 0);
    faults += std::exchange(out.faults, 0);
    for (const std::uint32_t h : out.touched) {
      health_tally& t = out.health[h];
      health_->fold(h, t.routed, t.dropped, t.duplicated, t.delivered);
      t = {};
    }
    out.touched.clear();
  }
  if (faults != 0) live_faults_counter().add(faults);
  return scheduled;
}

// --- delivery ---------------------------------------------------------------

void net_base::deliver_to(std::size_t dst, const message& m) {
  if (crashed_[dst] || churn_down_[dst] != 0) return;
  ++stats_.local_steps_per_node[dst];
  ++stats_.messages_received_per_node[dst];
  context ctx(*this, static_cast<int>(dst));
  if constexpr (telemetry::kEnabled) {
    if (m.trace_id != 0) {
      // Restore the sender's context from the envelope: the receive span
      // parents under the SEND site (link=async), not under whatever the
      // executing thread happens to be doing, and lands on the receiving
      // rank's pid lane.
      telemetry::trace::context_scope adopt({m.trace_id, m.parent_span});
      telemetry::trace::rank_scope rank(static_cast<int>(dst));
      telemetry::trace::trace_span span("recv." + m.tag, "distributed");
      telemetry::trace::flow_end(m.flow_id, "msg." + m.tag, "distributed");
      procs_[dst]->receive(ctx, m);
      return;
    }
  }
  procs_[dst]->receive(ctx, m);
}

void net_base::charge_node(int node, std::size_t steps) {
  stats_.local_steps_per_node[static_cast<std::size_t>(node)] += steps;
}

void net_base::decide_node(int node, const std::string& key, long value) {
  decisions_[static_cast<std::size_t>(node)][key] = value;
}

// --- the synchronous superstep ----------------------------------------------

void net_base::node_superstep(std::size_t i,
                              std::span<const message* const> inbox) {
  if (crashed_[i] || churn_down_[i] != 0) return;  // mail rots undelivered
  // When this task runs on a worker thread it has no ambient trace
  // context; adopt the enclosing round span's so the node's spans stay in
  // the run's causal tree.  On the coordinator (sim backend) the context
  // is already current and no adoption happens, preserving scope links.
  std::optional<telemetry::trace::context_scope> adopt;
  if constexpr (telemetry::kEnabled) {
    const telemetry::trace::span_context phase{phase_trace_id_,
                                               phase_parent_span_};
    if (phase.active() && !(telemetry::trace::current_context() == phase))
      adopt.emplace(phase);
  }
  telemetry::trace::rank_scope rank(static_cast<int>(i));
  telemetry::profile::probe superstep_probe(prof_superstep_frame_);
  if (!inbox.empty()) {
    telemetry::profile::probe deliver_probe(prof_deliver_frame_);
    for (const message* m : inbox) deliver_to(i, *m);
  }
  context ctx(*this, static_cast<int>(i));
  telemetry::trace::child_span span("on_round", "distributed");
  procs_[i]->on_round(ctx);
}

void net_base::shard_superstep(std::size_t s) {
  const auto [lo, hi] = shard_range(s);
  const std::size_t parity = (round_ & 1) ^ 1;  // the set round_ - 1 filled
  std::size_t mail = 0;
  for (const shard_sends& from : sends_) mail += from.buckets[parity][s].size();
  if (mail == 0) {
    // Nothing due anywhere in this shard: run the bare supersteps.
    for (std::size_t i = lo; i < hi; ++i) node_superstep(i, {});
    return;
  }
  // Stable counting sort of the S buckets by destination: count, prefix,
  // scatter pointers.  Buckets are visited in source-shard order and each
  // is in sender order, so every node's span IS its canonical mailbox.
  auto& inbox = inbox_[s];
  {
    telemetry::profile::probe route_probe(prof_route_frame_);
    for (std::size_t i = lo; i < hi; ++i) inbox_end_[i] = 0;
    for (const shard_sends& from : sends_)
      for (const message& m : from.buckets[parity][s])
        ++inbox_end_[static_cast<std::size_t>(m.dst)];
    std::uint32_t running = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      inbox_begin_[i] = running;
      running += inbox_end_[i];
      inbox_end_[i] = inbox_begin_[i];  // becomes the scatter cursor
    }
    // Mail varies round to round: grow with headroom, not to the exact
    // size, so a slightly busier round does not reallocate.
    if (inbox.capacity() < mail) inbox.reserve(2 * mail);
    inbox.resize(mail);
    for (const shard_sends& from : sends_)
      for (const message& m : from.buckets[parity][s])
        inbox[inbox_end_[static_cast<std::size_t>(m.dst)]++] = &m;
  }
  // Each message sits at a scattered bucket position: prefetch a few
  // nodes ahead so those reads overlap instead of stalling one by one.
  constexpr std::size_t kPrefetchNodes = 4;
  for (std::size_t i = lo; i < hi; ++i) {
    if (const std::size_t j = i + kPrefetchNodes; j < hi)
      for (std::uint32_t k = inbox_begin_[j]; k < inbox_end_[j]; ++k) {
        __builtin_prefetch(inbox[k]);
        __builtin_prefetch(reinterpret_cast<const char*>(inbox[k]) + 64);
      }
    node_superstep(i, std::span<const message* const>(
                          inbox.data() + inbox_begin_[i],
                          inbox.data() + inbox_end_[i]));
  }
  for (shard_sends& from : sends_) from.buckets[parity][s].clear();
}

void net_base::run_synchronous(std::size_t max_rounds) {
  for (round_ = 1; round_ <= max_rounds; ++round_) {
    telemetry::trace::child_span round_span("round", "distributed");
    round_span.arg("round", std::to_string(round_));
    const auto round_ctx = round_span.context();
    phase_trace_id_ = round_ctx.trace_id;
    phase_parent_span_ = round_ctx.span_id;
    // Crash-stop nodes whose time has come; draw this round's churn.
    apply_round_faults();
    // Synchronous mode has no delay faults, so every pending message is
    // due this round; each shard gathers its buckets and drains every
    // node's span, its own sends filling the other bucket set.
    const bool any_due = pending_count_ > 0;
    for_each_shard([this](std::size_t s) { shard_superstep(s); });
    pending_count_ = fold_sends();
    live_routed_counter().add(pending_count_);
    in_flight_gauge().set(static_cast<std::int64_t>(pending_count_));
    // One clock reading stamps the heartbeat and times the health barrier.
    if constexpr (telemetry::kEnabled) {
      const std::uint64_t now_ns = telemetry::live::steady_now_ns();
      if (run_heartbeat_) run_heartbeat_->beat_at(now_ns / 1'000'000);
      if (health_)
        health_->end_round(round_, now_ns, phase_trace_id_,
                           phase_parent_span_);
    }
    if (all_down()) break;
    if (!any_due && pending_count_ == 0) break;  // quiescent
  }
  stats_.rounds = round_;
}

void net_base::run_asynchronous(std::size_t max_rounds) {
  std::size_t delivered = 0;
  const std::size_t max_events = max_rounds * node_count();
  while (!events_.empty() && delivered < max_events) {
    const event ev = events_.top();
    events_.pop();
    now_ = ev.time;
    // Deferred crashes: at_round counts scheduler ticks here.
    if (have_deferred_crashes_) {
      for (std::size_t i = 0; i < node_count(); ++i)
        if (crash_round_[i] != 0 && now_ >= crash_round_[i] && !crashed_[i]) {
          crashed_[i] = true;
          ++down_count_;
        }
    }
    {
      telemetry::profile::probe deliver_probe(prof_deliver_frame_);
      deliver_to(static_cast<std::size_t>(ev.msg.dst), ev.msg);
    }
    ++delivered;
    live_routed_counter().add();
    in_flight_gauge().set(static_cast<std::int64_t>(events_.size()));
    if (run_heartbeat_) run_heartbeat_->beat();
  }
  stats_.rounds = static_cast<std::size_t>(now_);
}

void net_base::run_node_start(std::size_t i) {
  if (crashed_[i] || churn_down_[i] != 0) return;
  std::optional<telemetry::trace::context_scope> adopt;
  if constexpr (telemetry::kEnabled) {
    const telemetry::trace::span_context phase{phase_trace_id_,
                                               phase_parent_span_};
    if (phase.active() && !(telemetry::trace::current_context() == phase))
      adopt.emplace(phase);
  }
  ++stats_.local_steps_per_node[i];
  context ctx(*this, static_cast<int>(i));
  telemetry::trace::rank_scope rank(static_cast<int>(i));
  telemetry::trace::child_span span("start", "distributed");
  procs_[i]->start(ctx);
}

void net_base::run_start_phase() {
  // A run starts with no mail in flight: round 0 sends fill bucket set 0,
  // which round 1 gathers.
  round_ = 0;
  for (shard_sends& out : sends_)
    for (auto& set : out.buckets)
      for (auto& bucket : set) bucket.clear();
  for_each_shard([this](std::size_t s) {
    const auto [lo, hi] = shard_range(s);
    for (std::size_t i = lo; i < hi; ++i) run_node_start(i);
  });
  if (opts_.mode == timing::synchronous) {
    pending_count_ = fold_sends();
    // Round 0 = the start phase; the round loop continues from 1, so
    // every backend reports identical round indices to the observatory.
    if (health_)
      health_->end_round(0, telemetry::live::steady_now_ns(), phase_trace_id_,
                         phase_parent_span_);
  }
}

void net_base::finalize_stats() {
  // The send accumulators fold once per run.
  for (shard_sends& out : sends_) {
    stats_.messages_total += std::exchange(out.total, 0);
    stats_.messages_dropped += std::exchange(out.dropped, 0);
    stats_.messages_duplicated += std::exchange(out.duplicated, 0);
    for (const auto& [tag, count] : out.by_tag)
      stats_.messages_by_tag[tag] += count;
    out.by_tag.clear();
  }
  stats_.local_steps = 0;
  for (const std::size_t s : stats_.local_steps_per_node)
    stats_.local_steps += s;
}

run_stats net_base::run(std::size_t max_rounds) {
  if (procs_.size() != node_count())
    throw std::logic_error("net_base::run: spawn() a process per node first");
  if (opts_.mode == timing::asynchronous && !supports_asynchronous())
    throw std::invalid_argument(
        std::string("transport backend '") + backend_name() +
        "' implements only timing::synchronous supersteps; use "
        "sim_transport for timing::asynchronous runs");
  // When the caller is tracing, the whole run is one span; every handler
  // invocation below nests (directly or via the message envelope) under
  // it, forming a single causal tree across all ranks — on every backend.
  telemetry::trace::child_span run_span("distributed.network.run",
                                        "distributed");
  run_span.arg("backend", backend_name());
  // Resolve this backend's phase frames once per run (backend_name() is
  // virtual, so this cannot happen in the base constructor) and open the
  // run-level frame; superstep probes on worker threads re-root under it
  // via the thread pool's shadow-path propagation.
  const std::string prof_prefix = std::string("distributed.") + backend_name();
  if constexpr (telemetry::kEnabled) {
    prof_superstep_frame_ = telemetry::profile::intern(prof_prefix + ".superstep");
    prof_route_frame_ = telemetry::profile::intern(prof_prefix + ".route");
    prof_deliver_frame_ = telemetry::profile::intern(prof_prefix + ".deliver");
    prof_fault_frame_ = telemetry::profile::intern(prof_prefix + ".fault");
  }
  telemetry::profile::probe run_probe(std::string_view(prof_prefix + ".run"));
  const auto run_ctx = run_span.context();
  phase_trace_id_ = run_ctx.trace_id;
  phase_parent_span_ = run_ctx.span_id;
  // Liveness: the run is one busy watchdog participant, beaten once per
  // superstep/event, so a transport wedged mid-run (e.g. a deadlocked
  // worker barrier) shows up as a stall instead of a silent hang.
  run_heartbeat_ = telemetry::live::watchdog::global().register_heartbeat(
      std::string("distributed.") + backend_name() + ".run");
  run_heartbeat_->begin_work();
  {
    // However the run ends — a handler may throw — it leaves no busy
    // heartbeat (a phantom stall), no health track and no in-flight
    // backlog behind.
    struct run_scope {
      net_base& net;
      ~run_scope() {
        net.run_heartbeat_->end_work();
        net.run_heartbeat_.reset();
        net.health_ = nullptr;
        in_flight_gauge().set(0);
      }
    } const release{*this};
    // Health roll-ups: one fixed-size track per backend (nullptr when the
    // observatory is off — every hook below is one pointer test then).
    health_ = telemetry::health::observatory::global().begin_run(
        backend_name(), node_count());
    const std::size_t health_slots = health_ ? health_->shards_used() : 0;
    for (shard_sends& out : sends_) {
      out.health.assign(health_slots, {});
      out.touched.clear();
      out.touched.reserve(health_slots);
    }
    run_start_phase();
    if (opts_.mode == timing::synchronous)
      run_synchronous(max_rounds);
    else
      run_asynchronous(max_rounds);
  }
  finalize_stats();
  // Fold this run into the process-wide telemetry registry so every
  // backend exports uniformly (the taxonomy's measured dimensions:
  // messages per tag, rounds, local computation, injected faults).
  auto& reg = telemetry::registry::global();
  reg.get_counter("distributed.network.runs").add();
  reg.get_counter(std::string("distributed.network.runs.") + backend_name())
      .add();
  reg.get_counter("distributed.network.messages_total")
      .add(stats_.messages_total);
  reg.get_counter("distributed.network.messages_dropped")
      .add(stats_.messages_dropped);
  reg.get_counter("distributed.network.messages_duplicated")
      .add(stats_.messages_duplicated);
  reg.get_counter("distributed.network.rounds").add(stats_.rounds);
  reg.get_counter("distributed.network.local_steps").add(stats_.local_steps);
  for (const auto& [tag, count] : stats_.messages_by_tag)
    reg.get_counter("distributed.network.messages." + tag).add(count);
  reg.get_histogram("distributed.network.run_rounds").record(stats_.rounds);
  reg.get_histogram("distributed.network.run_messages")
      .record(stats_.messages_total);
  return stats_;
}

// --- decisions --------------------------------------------------------------

std::optional<long> net_base::decision(int node, const std::string& key) const {
  const auto& m = decisions_[check_node(node, "decision")];
  const auto it = m.find(key);
  if (it == m.end()) return std::nullopt;
  return it->second;
}

std::vector<int> net_base::deciders(const std::string& key) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < decisions_.size(); ++i)
    if (decisions_[i].contains(key)) out.push_back(static_cast<int>(i));
  return out;
}

std::map<std::pair<int, std::string>, long> net_base::all_decisions() const {
  std::map<std::pair<int, std::string>, long> out;
  for (std::size_t i = 0; i < decisions_.size(); ++i)
    for (const auto& [key, value] : decisions_[i])
      out[{static_cast<int>(i), key}] = value;
  return out;
}

}  // namespace cgp::distributed
