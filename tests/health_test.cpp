// Tests for the distributed health observatory (DESIGN.md §14): roll-up
// fold arithmetic, the node -> health-shard mapping, send-keyed activity
// tracking (a shard that only RECEIVES is not making progress), seeded
// reservoir determinism and capacity, SLO episode semantics with their
// verdict side effects (counter + flight note + trace instant), the
// cgp.health.v1 validator's tamper detection, byte-identical manual-clock
// exports, cross-backend per-shard parity, and — via whole-binary
// operator new/delete shims — the O(shards) memory contract at a million
// nodes and the allocation-free steady state of the engine's rounds.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// Whole-binary counting operator new/delete; the scale tests read deltas.
#include "alloc_hook.hpp"
#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "telemetry/export.hpp"
#include "telemetry/health.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/watchdog.hpp"

namespace dist = cgp::distributed;
namespace health = cgp::telemetry::health;
namespace telemetry = cgp::telemetry;

namespace {

// Every test owns the global observatory for its duration: enable with
// its own options, disable + reset on the way out.
class observatory_session {
 public:
  explicit observatory_session(health::health_options opts) {
    health::observatory::global().enable(std::move(opts));
  }
  ~observatory_session() {
    health::observatory::global().disable();
    health::observatory::global().reset();
  }
};

// One round of traffic for a track, as the engine's fold_sends sums it:
// `fold` adds to a health slot's tally, and `end_round` hands the round's
// tally to the track and starts the next round from zero.
class round_tally {
 public:
  explicit round_tally(health::backend_track* t)
      : track_(t), slots_(t->shards_used()) {}
  void fold(std::size_t shard, std::uint64_t routed, std::uint64_t dropped,
            std::uint64_t duplicated, std::uint64_t delivered) {
    slots_[shard] += {routed, dropped, duplicated, delivered};
  }
  void end_round(std::size_t round, std::uint64_t now_ns) {
    track_->end_round(round, slots_, now_ns);
    std::fill(slots_.begin(), slots_.end(), health::slot_tally{});
  }

 private:
  health::backend_track* track_;
  std::vector<health::slot_tally> slots_;
};

void expect_rows_equal(const health::shard_rollup& a,
                       const health::shard_rollup& b, const std::string& who) {
  EXPECT_EQ(a.routed, b.routed) << who;
  EXPECT_EQ(a.delivered, b.delivered) << who;
  EXPECT_EQ(a.dropped, b.dropped) << who;
  EXPECT_EQ(a.duplicated, b.duplicated) << who;
  EXPECT_EQ(a.last_active_round, b.last_active_round) << who;
  EXPECT_EQ(a.rounds_active, b.rounds_active) << who;
  EXPECT_EQ(a.latency_count, b.latency_count) << who;
  EXPECT_EQ(a.latency_sum, b.latency_sum) << who;
  EXPECT_EQ(a.depth_count, b.depth_count) << who;
  EXPECT_EQ(a.depth_sum, b.depth_sum) << who;
  EXPECT_EQ(a.latency_buckets, b.latency_buckets) << who;
  EXPECT_EQ(a.depth_buckets, b.depth_buckets) << who;
}

}  // namespace

// ---------------------------------------------------------------------------
// roll-up arithmetic and shard mapping
// ---------------------------------------------------------------------------

TEST(HealthRollupTest, FoldSumsCountsAndMaxesActivity) {
  health::shard_rollup a;
  a.routed = 10;
  a.delivered = 8;
  a.dropped = 1;
  a.duplicated = 2;
  a.last_active_round = 3;
  a.rounds_active = 2;
  a.latency_count = 2;
  a.latency_sum = 7;
  a.depth_count = 2;
  a.depth_sum = 9;
  a.latency_buckets[2] = 2;
  a.depth_buckets[3] = 2;
  health::shard_rollup b;
  b.routed = 5;
  b.delivered = 4;
  b.dropped = 0;
  b.duplicated = 1;
  b.last_active_round = 7;
  b.rounds_active = 4;
  b.latency_count = 4;
  b.latency_sum = 11;
  b.depth_count = 4;
  b.depth_sum = 6;
  b.latency_buckets[2] = 1;
  b.latency_buckets[5] = 3;
  b.depth_buckets[3] = 4;
  a.fold(b);
  EXPECT_EQ(a.routed, 15u);
  EXPECT_EQ(a.delivered, 12u);
  EXPECT_EQ(a.dropped, 1u);
  EXPECT_EQ(a.duplicated, 3u);
  EXPECT_EQ(a.last_active_round, 7u);  // activity MAXES, it does not sum
  EXPECT_EQ(a.rounds_active, 6u);
  EXPECT_EQ(a.latency_count, 6u);
  EXPECT_EQ(a.latency_sum, 18u);
  EXPECT_EQ(a.depth_count, 6u);
  EXPECT_EQ(a.depth_sum, 15u);
  EXPECT_EQ(a.latency_buckets[2], 3u);
  EXPECT_EQ(a.latency_buckets[5], 3u);
  EXPECT_EQ(a.depth_buckets[3], 6u);
}

TEST(HealthTrackTest, ShardMappingIsContiguousAndClamped) {
  observatory_session session({.shards = 16, .manual_clock = true});
  auto& obs = health::observatory::global();
  // 100 nodes over 16 shards: width ceil(100/16) = 7, so 15 shards carry
  // nodes and the last one is short (98..99).
  health::backend_track* t = obs.begin_run("sim", 100);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->shards_used(), 15u);
  EXPECT_EQ(t->shard_of(0), 0u);
  EXPECT_EQ(t->shard_of(6), 0u);
  EXPECT_EQ(t->shard_of(7), 1u);
  EXPECT_EQ(t->shard_of(99), 14u);
  // Out-of-range nodes clamp to the last slot instead of indexing past it.
  EXPECT_EQ(t->shard_of(100'000), 15u);
  // A million-node run re-derives the mapping on the SAME fixed slots.
  health::backend_track* again = obs.begin_run("sim", 1'000'000);
  EXPECT_EQ(again, t);  // stable pointer: accumulators persist across runs
  EXPECT_EQ(t->shards_used(), 16u);
  EXPECT_EQ(t->shard_of(62'499), 0u);
  EXPECT_EQ(t->shard_of(62'500), 1u);
  EXPECT_EQ(t->shard_of(999'999), 15u);
}

// ---------------------------------------------------------------------------
// activity tracking: progress is SENDS
// ---------------------------------------------------------------------------

TEST(HealthTrackTest, ActivityFollowsSendsNotDeliveries) {
  observatory_session session(
      {.shards = 4, .reservoir_k = 4, .manual_clock = true});
  auto& obs = health::observatory::global();
  health::backend_track* t = obs.begin_run("sim", 8);  // width 2: 4 shards
  ASSERT_NE(t, nullptr);
  round_tally tally(t);
  // Round 0: both shards route; shard 1's mail lands on node 3.
  tally.fold(t->shard_of(0), 1, 0, 0, 0);
  tally.fold(t->shard_of(2), 1, 0, 0, 0);
  tally.fold(t->shard_of(1), 0, 0, 0, 1);
  tally.fold(t->shard_of(3), 0, 0, 0, 1);
  tally.end_round(0, 0);
  // Rounds 1..2: shard 0 keeps sending; shard 1 only RECEIVES (the
  // crashed-node shape: neighbors keep gossiping at it).
  for (std::size_t r = 1; r <= 2; ++r) {
    tally.fold(t->shard_of(0), 1, 0, 0, 0);
    tally.fold(t->shard_of(3), 0, 0, 0, 1);
    tally.end_round(r, 0);
  }
  const health::backend_snapshot snap = t->snapshot();
  ASSERT_EQ(snap.shards.size(), 4u);
  const health::shard_rollup& active = snap.shards[0];
  const health::shard_rollup& receiver = snap.shards[1];
  EXPECT_EQ(active.routed, 3u);
  EXPECT_EQ(active.last_active_round, 3u);  // 1 + last round it sent
  EXPECT_EQ(active.rounds_active, 3u);
  // The receiver took deliveries in every round — its depth and latency
  // histograms advance — but its ACTIVITY is frozen at round 0.
  EXPECT_EQ(receiver.routed, 1u);
  EXPECT_EQ(receiver.delivered, 3u);
  EXPECT_EQ(receiver.depth_count, 3u);
  EXPECT_EQ(receiver.latency_count, 3u);
  EXPECT_EQ(receiver.last_active_round, 1u);
  EXPECT_EQ(receiver.rounds_active, 1u);
  // Manual-clock latency is a pure function of the round's deliveries
  // (delivered_delta + 1): shard 0 took one delivery in round 0 and none
  // after, so its latency stream is 2, 1, 1.
  EXPECT_EQ(active.latency_sum, 4u);
  // Reservoir offers follow the same rule: the receiver offered only its
  // one sending round.
  std::size_t receiver_exemplars = 0;
  for (const health::exemplar& ex : snap.reservoir)
    if (ex.shard == 1) ++receiver_exemplars;
  EXPECT_EQ(receiver_exemplars, 1u);
  EXPECT_EQ(snap.reservoir_seen, 4u);  // 3 offers from shard 0 + 1 from 1
}

// ---------------------------------------------------------------------------
// reservoirs
// ---------------------------------------------------------------------------

TEST(HealthReservoirTest, SeededSamplingIsDeterministicAndBounded) {
  constexpr std::size_t kK = 3;
  constexpr std::size_t kRounds = 20;
  const auto feed = [] {
    auto& obs = health::observatory::global();
    obs.reset();
    health::backend_track* t = obs.begin_run("sim", 8);
    round_tally tally(t);
    for (std::size_t r = 0; r < kRounds; ++r) {
      tally.fold(t->shard_of(0), 1, 0, 0, 0);  // shard 0
      tally.fold(t->shard_of(7), 1, 0, 0, 0);  // shard 3
      tally.end_round(r, 0);
    }
    return t->snapshot();
  };
  observatory_session session(
      {.shards = 4, .reservoir_k = kK, .seed = 7, .manual_clock = true});
  const health::backend_snapshot first = feed();
  const health::backend_snapshot second = feed();
  // Bounded: every shard retains at most k exemplars despite 20 offers.
  EXPECT_EQ(first.reservoir_seen, 2 * kRounds);
  std::size_t per_shard[4] = {0, 0, 0, 0};
  for (const health::exemplar& ex : first.reservoir) {
    ASSERT_LT(ex.shard, 4u);
    ++per_shard[ex.shard];
    EXPECT_GE(ex.seen, 1u);
    EXPECT_LE(ex.seen, kRounds);
  }
  EXPECT_EQ(per_shard[0], kK);
  EXPECT_EQ(per_shard[3], kK);
  // The survivors are not just the first k: late admissions must have
  // displaced early ones somewhere across the two reservoirs.
  bool late_admission = false;
  for (const health::exemplar& ex : first.reservoir)
    if (ex.seen > kK) late_admission = true;
  EXPECT_TRUE(late_admission) << "algorithm R never replaced anything";
  // Deterministic: identical seed + identical stream = identical keeps.
  ASSERT_EQ(first.reservoir.size(), second.reservoir.size());
  for (std::size_t i = 0; i < first.reservoir.size(); ++i) {
    EXPECT_EQ(first.reservoir[i].shard, second.reservoir[i].shard);
    EXPECT_EQ(first.reservoir[i].round, second.reservoir[i].round);
    EXPECT_EQ(first.reservoir[i].seen, second.reservoir[i].seen);
    EXPECT_EQ(first.reservoir[i].latency, second.reservoir[i].latency);
  }
}

// ---------------------------------------------------------------------------
// SLO episodes and verdict side effects
// ---------------------------------------------------------------------------

TEST(HealthRulesTest, OneVerdictPerEpisodeWithSideEffects) {
  health::slo_rule stall;
  stall.kind = health::rule_kind::stall_budget;
  stall.name = "shard_stall";
  stall.budget = 1;
  observatory_session session(
      {.shards = 4, .manual_clock = true, .rules = {stall}});
  auto& obs = health::observatory::global();
  auto& verdict_counter =
      telemetry::registry::global().get_counter("telemetry.verdicts");
  const std::uint64_t counted_before = verdict_counter.value();
  health::backend_track* t = obs.begin_run("sim", 8);
  round_tally tally(t);
  // Rounds 0..5: shard 0 routes every round, shard 1 only in round 0 —
  // after round 5 its lag (6 - 1 = 5) blows the budget of 1.
  for (std::size_t r = 0; r <= 5; ++r) {
    tally.fold(t->shard_of(0), 1, 0, 0, 0);
    if (r == 0) tally.fold(t->shard_of(2), 1, 0, 0, 0);
    tally.end_round(r, 0);
  }
  EXPECT_EQ(obs.tick(1000), 1u);
  // Still violated at the next tick: the episode is already flagged, so
  // no second verdict.
  EXPECT_EQ(obs.tick(2000), 0u);
  {
    const auto verdicts = obs.verdicts();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].rule, "shard_stall");
    EXPECT_EQ(verdicts[0].target, "distributed.sim.shard1");
    EXPECT_EQ(verdicts[0].kind, health::rule_kind::stall_budget);
    EXPECT_EQ(verdicts[0].tick, 1u);
    EXPECT_EQ(verdicts[0].t_ms, 1000u);
  }
  // Side effects of the one verdict: registry counter, flight note, and
  // a trace instant naming the rule and target.
  EXPECT_EQ(verdict_counter.value(), counted_before + 1);
  bool flight_note = false;
  for (const auto& e : telemetry::live::flight_recorder::global().snapshot())
    if (e.name == "health.shard_stall") flight_note = true;
  EXPECT_TRUE(flight_note);
  const std::string trace_json =
      telemetry::trace::sink::global().export_chrome_trace();
  EXPECT_NE(trace_json.find("health.shard_stall: distributed.sim.shard1"),
            std::string::npos);
  // The condition clears (shard 1 routes again) — the episode re-arms...
  tally.fold(t->shard_of(0), 1, 0, 0, 0);
  tally.fold(t->shard_of(2), 1, 0, 0, 0);
  tally.end_round(6, 0);
  EXPECT_EQ(obs.tick(3000), 0u);
  // ...and a FRESH stall of the same shard is a fresh verdict.
  for (std::size_t r = 7; r <= 9; ++r) {
    tally.fold(t->shard_of(0), 1, 0, 0, 0);
    tally.end_round(r, 0);
  }
  EXPECT_EQ(obs.tick(4000), 1u);
  EXPECT_EQ(obs.verdicts().size(), 2u);
  EXPECT_EQ(verdict_counter.value(), counted_before + 2);
}

// The stall watchdog and the health observatory raise through one path:
// each verdict is one `verdict` flight entry, one root trace instant and
// one count, and neither leaves a marker in the flight ring.
TEST(HealthRulesTest, WatchdogStallAndSloViolationShareOneVerdictPath) {
  auto& reg = telemetry::registry::global();
  auto& recorder = telemetry::live::flight_recorder::global();
  auto& sink = telemetry::trace::sink::global();
  recorder.clear();
  sink.clear();
  auto& all = reg.get_counter("telemetry.verdicts");
  auto& stalls = reg.get_counter("telemetry.verdicts.watchdog.stall");
  auto& slo = reg.get_counter("telemetry.verdicts.health.shard_stall");
  const std::array before = {all.value(), stalls.value(), slo.value()};

  // A manual-clock stall: busy since t=100, silent past its 20 ms budget.
  telemetry::live::watchdog wd;
  auto hb = wd.register_heartbeat("verdict_test.worker");
  hb->begin_work();
  hb->beat_at(100);
  ASSERT_EQ(wd.check(125, 10, 2), 1u);

  // An SLO violation: shard 1 stops routing past a one-round budget.
  health::slo_rule stall;
  stall.kind = health::rule_kind::stall_budget;
  stall.name = "shard_stall";
  stall.budget = 1;
  observatory_session session(
      {.shards = 4, .manual_clock = true, .rules = {stall}});
  health::backend_track* t =
      health::observatory::global().begin_run("sim", 8);
  round_tally tally(t);
  for (std::size_t r = 0; r <= 5; ++r) {
    tally.fold(t->shard_of(0), 1, 0, 0, 0);
    if (r == 0) tally.fold(t->shard_of(2), 1, 0, 0, 0);
    tally.end_round(r, 0);
  }
  ASSERT_EQ(health::observatory::global().tick(1000), 1u);

  EXPECT_EQ(all.value(), before[0] + 2);
  EXPECT_EQ(stalls.value(), before[1] + 1);
  EXPECT_EQ(slo.value(), before[2] + 1);

  const auto flight = telemetry::live::validate_flight_dump(
      telemetry::parse_json(recorder.dump_json()));
  EXPECT_TRUE(flight.ok) << flight.error_text();
  EXPECT_EQ(flight.verdicts, 2u);
  EXPECT_EQ(flight.markers, 0u);
  std::vector<std::string> noted;
  for (const auto& e : recorder.snapshot())
    if (e.k == telemetry::live::flight_entry::kind::verdict)
      noted.push_back(e.name);
  EXPECT_EQ(noted, (std::vector<std::string>{"watchdog.stall",
                                             "health.shard_stall"}));

  std::size_t stall_instants = 0, slo_instants = 0;
  const auto trace_doc =
      telemetry::parse_json(sink.export_chrome_trace());
  for (const auto& ev : trace_doc.at("traceEvents").arr) {
    if (!ev.has("name")) continue;
    const std::string& name = ev.at("name").str;
    if (name == "watchdog.stall: verdict_test.worker") ++stall_instants;
    if (name == "health.shard_stall: distributed.sim.shard1") ++slo_instants;
  }
  EXPECT_EQ(stall_instants, 1u);
  EXPECT_EQ(slo_instants, 1u);
}

// ---------------------------------------------------------------------------
// export + validator
// ---------------------------------------------------------------------------

namespace {

// A small synthetic scenario that produces every document section: two
// backends, uneven shards, a verdict, retained exemplars.
std::string synthetic_export() {
  auto& obs = health::observatory::global();
  obs.reset();
  for (const char* backend : {"sim", "inproc"}) {
    health::backend_track* t = obs.begin_run(backend, 8);
    round_tally tally(t);
    for (std::size_t r = 0; r <= 5; ++r) {
      // One drop, one duplicate.
      tally.fold(t->shard_of(0), 1, r == 3, r == 4, 0);
      if (r == 0) tally.fold(t->shard_of(2), 1, 0, 0, 0);
      tally.fold(t->shard_of(1), 0, 0, 0, 1);
      tally.end_round(r, 0);
    }
  }
  obs.tick(1000);
  return obs.export_json();
}

}  // namespace

TEST(HealthExportTest, ManualClockExportIsByteIdentical) {
  health::slo_rule stall;
  stall.kind = health::rule_kind::stall_budget;
  stall.name = "shard_stall";
  stall.budget = 1;
  observatory_session session(
      {.shards = 4, .reservoir_k = 3, .seed = 9, .manual_clock = true,
       .rules = {stall}});
  const std::string first = synthetic_export();
  const std::string second = synthetic_export();
  EXPECT_EQ(first, second);
  // And a REAL distributed run is just as reproducible under the manual
  // clock: same seed, same faults, same document bytes.
  const auto real_run = [] {
    auto& obs = health::observatory::global();
    obs.reset();
    dist::net_options opts;
    opts.nodes = 32;
    opts.topo = dist::topology::ring;
    opts.seed = 11;
    opts.faults.drop = 0.04;
    opts.faults.duplicate = 0.02;
    dist::sim_transport net(opts);
    net.spawn(dist::gossip_membership(4));
    net.run(10);
    obs.tick(500);
    return obs.export_json();
  };
  EXPECT_EQ(real_run(), real_run());
}

TEST(HealthExportTest, ValidatorAcceptsRealExportAndRejectsTampering) {
  health::slo_rule stall;
  stall.kind = health::rule_kind::stall_budget;
  stall.name = "shard_stall";
  stall.budget = 1;
  observatory_session session(
      {.shards = 4, .reservoir_k = 3, .seed = 9, .manual_clock = true,
       .rules = {stall}});
  const std::string json = synthetic_export();
  const telemetry::json_value doc = telemetry::parse_json(json);
  {
    const auto v = health::validate_health_export(doc);
    EXPECT_TRUE(v.ok) << v.error_text();
    EXPECT_EQ(v.backends, 2u);
    EXPECT_GT(v.shards, 0u);
    EXPECT_GT(v.exemplars, 0u);
    EXPECT_EQ(v.verdicts, 2u);  // one stalled shard per backend
  }
  {  // wrong schema tag
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["schema"].str = "cgp.health.v2";
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // backend rollup no longer the sum of its shard rows
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["backends"].arr[0].obj["rollup"].obj["routed"].num += 1;
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // run-level rollup no longer the fold of the backends
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["rollup"].obj["delivered"].num += 1;
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // a reservoir holding more than k exemplars for one shard
    telemetry::json_value bad = telemetry::parse_json(json);
    auto& reservoir = bad.obj["backends"].arr[0].obj["reservoir"].arr;
    ASSERT_FALSE(reservoir.empty());
    for (int i = 0; i < 4; ++i) reservoir.push_back(reservoir.front());
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // 0 is not a valid 1-based admission index
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["backends"].arr[0].obj["reservoir"].arr[0].obj["seen"].num = 0;
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // a verdict from a tick that never happened
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["verdicts"].arr[0].obj["tick"].num = 99;
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // a verdict referencing an undeclared rule
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["verdicts"].arr[0].obj["rule"].str = "no_such_rule";
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
  {  // a histogram whose buckets disagree with its count
    telemetry::json_value bad = telemetry::parse_json(json);
    bad.obj["backends"].arr[0].obj["shards"].arr[0].obj["latency"]
        .obj["count"].num += 1;
    EXPECT_FALSE(health::validate_health_export(bad).ok);
  }
}

// ---------------------------------------------------------------------------
// cross-backend parity
// ---------------------------------------------------------------------------

TEST(HealthParityTest, PerShardRollupsMatchAcrossBackends) {
  observatory_session session(
      {.shards = 8, .reservoir_k = 4, .seed = 5, .manual_clock = true});
  auto& obs = health::observatory::global();
  obs.reset();
  const auto drive = [](auto* net) {
    net->spawn(dist::gossip_membership(4));
    (void)net->run(10);
  };
  dist::net_options opts;
  opts.nodes = 48;
  opts.topo = dist::topology::ring;
  opts.seed = 11;
  opts.workers = 3;
  opts.faults.drop = 0.03;
  opts.faults.duplicate = 0.02;
  {
    dist::sim_transport net(opts);
    drive(&net);
  }
  {
    dist::parallel_transport net(opts);
    drive(&net);
  }
  {
    dist::inproc_transport net(opts);
    drive(&net);
  }
  const auto snaps = obs.snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  const health::backend_snapshot* sim = nullptr;
  for (const auto& s : snaps)
    if (s.name == "sim") sim = &s;
  ASSERT_NE(sim, nullptr);
  for (const auto& s : snaps) {
    ASSERT_EQ(s.shards.size(), sim->shards.size()) << s.name;
    EXPECT_EQ(s.rounds, sim->rounds) << s.name;
    for (std::size_t i = 0; i < s.shards.size(); ++i)
      expect_rows_equal(s.shards[i], sim->shards[i],
                        s.name + " shard " + std::to_string(i));
    expect_rows_equal(s.rollup, sim->rollup, s.name + " rollup");
    // Same seed, same per-shard streams: the threaded backends retain the
    // exact exemplar set the simulator does.
    ASSERT_EQ(s.reservoir.size(), sim->reservoir.size()) << s.name;
    EXPECT_EQ(s.reservoir_seen, sim->reservoir_seen) << s.name;
    for (std::size_t i = 0; i < s.reservoir.size(); ++i) {
      EXPECT_EQ(s.reservoir[i].shard, sim->reservoir[i].shard) << s.name;
      EXPECT_EQ(s.reservoir[i].round, sim->reservoir[i].round) << s.name;
      EXPECT_EQ(s.reservoir[i].seen, sim->reservoir[i].seen) << s.name;
    }
  }
}

// ---------------------------------------------------------------------------
// O(shards) memory at a million nodes
// ---------------------------------------------------------------------------

TEST(HealthScaleTest, TrackStateIsOShardsNotONodes) {
  observatory_session session(
      {.shards = 16, .reservoir_k = 8, .manual_clock = true});
  auto& obs = health::observatory::global();
  obs.reset();
  // Creating the track for a MILLION-node run must allocate shard-sized
  // state only: 16 rows + 16 reservoirs, nowhere near the
  // ~megabyte a single per-node array would cost.
  const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  health::backend_track* t = obs.begin_run("sim", 1'000'000);
  const std::size_t track_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_NE(t, nullptr);
  EXPECT_LT(track_bytes, 256u * 1024u)
      << "begin_run(1M) allocated " << track_bytes
      << " bytes — per-node state crept in";
  round_tally tally(t);
  // Folds allocate NOTHING (adds into a fixed per-slot tally).
  const std::size_t hooks_before =
      g_alloc_bytes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 1000; ++i) {
    tally.fold(t->shard_of(i * 997), 1, 0, 0, 0);
    tally.fold(t->shard_of(999'999 - i * 991), 0, 0, 0, 1);
  }
  EXPECT_EQ(g_alloc_bytes.load(std::memory_order_relaxed), hooks_before);
  // Round barrier + snapshot + a tick stay O(shards) too.
  tally.end_round(0, 0);
  const health::backend_snapshot snap = t->snapshot();
  EXPECT_EQ(snap.nodes, 1'000'000u);
  EXPECT_EQ(snap.shards.size(), 16u);
  (void)obs.tick(100);
  const std::size_t total =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(total, 1024u * 1024u)
      << "per-round/per-tick work allocated " << total << " bytes";
}

// ---------------------------------------------------------------------------
// Allocation-free steady state of the synchronous engine
// ---------------------------------------------------------------------------

namespace {

// Beats every neighbour each round; node 0 brackets rounds 3..10 with
// allocation-counter reads (round 11's superstep closes the window).  A
// churned-down node 0 skips rounds, so each end reads at the first round
// it runs on or after its mark.
struct alloc_window {
  std::size_t begin_round = 0, begin_bytes = 0;
  std::size_t end_round = 0, end_bytes = 0;
};

class beat_process final : public dist::process {
 public:
  explicit beat_process(std::shared_ptr<alloc_window> window)
      : window_(std::move(window)) {}
  void receive(dist::context&, const dist::message&) override {}
  void on_round(dist::context& ctx) override {
    if (window_ && window_->begin_round == 0 && ctx.round() >= 3) {
      window_->begin_round = ctx.round();
      window_->begin_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    }
    if (window_ && window_->end_round == 0 && ctx.round() >= 11) {
      window_->end_round = ctx.round();
      window_->end_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    }
    for (const int nb : ctx.neighbors()) ctx.send(nb, "beat");
  }

 private:
  std::shared_ptr<alloc_window> window_;
};

template <class Transport>
std::size_t steady_state_bytes(const dist::net_options& opts) {
  auto window = std::make_shared<alloc_window>();
  Transport net(opts);
  net.spawn([window](int id) {
    return std::make_unique<beat_process>(id == 0 ? window : nullptr);
  });
  const dist::run_stats& stats = net.run(12);
  EXPECT_EQ(stats.rounds, 13u);  // ran out the budget: no early stop
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.messages_duplicated, 0u);
  // The window really opened early and closed late.
  EXPECT_GE(window->begin_round, 3u);
  EXPECT_LE(window->begin_round, 4u);
  EXPECT_GE(window->end_round, 11u);
  return window->end_bytes - window->begin_bytes;
}

}  // namespace

TEST(HealthScaleTest, SteadyStateRoundsAllocateNothing) {
  // The engine recycles its bucket and inbox arenas, shard accumulators
  // and health tallies: once the first rounds have sized them, a round
  // allocates zero bytes — sends, fault draws, health folds, the gather
  // and delivery included.
  observatory_session session(
      {.shards = 16, .manual_clock = true, .rules = {}});
  const dist::net_options opts{
      .nodes = 10'000,
      .topo = dist::topology::random_regular,
      .seed = 17,
      .workers = 3,
      .faults = {.drop = 0.01, .duplicate = 0.01, .churn_crash = 0.002,
                 .churn_recover = 0.25}};
  // The simulator runs every phase on this thread, so every byte counts.
  EXPECT_EQ(steady_state_bytes<dist::sim_transport>(opts), 0u);
  // On the parallel backend the shard tasks run on pool workers; the
  // coordinator's own task submissions (the pool erases each task onto
  // the heap) are left out, everything the shard tasks do is counted.
  t_uncounted = true;
  const std::size_t parallel = steady_state_bytes<dist::parallel_transport>(opts);
  t_uncounted = false;
  EXPECT_EQ(parallel, 0u);
}

TEST(HealthScaleTest, DisabledObservatoryHandsOutNullTracks) {
  auto& obs = health::observatory::global();
  obs.disable();
  obs.reset();
  EXPECT_EQ(obs.begin_run("sim", 64), nullptr);
  EXPECT_EQ(obs.tick(1), 0u);  // no-op, no verdicts
  EXPECT_TRUE(obs.verdicts().empty());
}
