// Conformance suite: randomized THREE-WAY differential testing of the
// Transport backends.  The determinism contract (network.hpp) says a
// synchronous run's decisions and statistics are identical on every
// backend for a fixed seed; here that parity is re-verified between the
// sequential simulator, the executor-fan-out parallel backend, and the
// shared-memory mailbox inproc backend under RANDOMIZED topologies (all
// nine builders, including the scale-era torus/random_regular/power_law),
// node counts, seeds, channel orders, fault knobs, and churn schedules,
// rather than the hand-picked configurations of transport_test.cpp.  Any
// mismatch prints a CGP_CHECK_SEED line that replays the exact
// configuration.  A fixed 100k-node case keeps the oracle honest at scale
// inside tier-1 (the million-node twin lives in distributed_scale_test.cpp
// under the `slow` label).  A worker-count sweep with the health
// observatory on holds the parallel backend's per-shard health rollups to
// the simulator's as well.
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "check/gtest_support.hpp"
#include "check/property.hpp"
#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "telemetry/health.hpp"

namespace check = cgp::check;
namespace dist = cgp::distributed;
namespace health = cgp::telemetry::health;

CGP_REGISTER_SEED_BANNER();

namespace {

struct outcome {
  dist::run_stats stats;
  std::map<std::pair<int, std::string>, long> decisions;
};

struct plan {
  dist::net_options opts;
  int crash_node = -1;  ///< < 0: no crash
  std::size_t crash_round = 0;
};

/// Derives a full run configuration from one generated 64-bit value, so a
/// parity failure shrinks/replays through the ordinary seed machinery.
plan random_plan(check::random_source& rs, bool with_faults) {
  const auto topos = dist::all_topologies();
  plan p;
  p.opts.nodes = 2 + rs.below(31);  // 2..32: several shards per worker
  p.opts.topo = topos[rs.below(topos.size())];
  p.opts.mode = dist::timing::synchronous;  // parallel/inproc are sync-only
  p.opts.seed = static_cast<std::uint32_t>(rs.bits());
  p.opts.fifo_links = rs.chance(50);
  p.opts.workers = static_cast<unsigned>(2 + rs.below(3));
  if (with_faults) {
    p.opts.faults.drop = 0.1 * static_cast<double>(rs.below(4));       // 0..0.3
    p.opts.faults.duplicate = 0.1 * static_cast<double>(rs.below(4));  // 0..0.3
    if (rs.chance(30)) {
      p.crash_node = static_cast<int>(rs.below(p.opts.nodes));
      p.crash_round = rs.below(4);
    }
    if (rs.chance(40)) {
      // A churn schedule: the per-(node, round) hash draws must replay
      // identically on every backend.
      p.opts.faults.churn_crash = 0.05 * static_cast<double>(1 + rs.below(3));
      p.opts.faults.churn_recover = 0.2;
      p.opts.faults.churn_until = 2 + rs.below(6);
    }
  }
  return p;
}

template <class Transport>
outcome run_on(const plan& p, const dist::process_factory& factory) {
  Transport net(p.opts);
  net.spawn(factory);
  if (p.crash_node >= 0) net.crash(p.crash_node, p.crash_round);
  outcome out;
  out.stats = net.run(500);
  out.decisions = net.all_decisions();
  return out;
}

bool stats_equal(const dist::run_stats& a, const dist::run_stats& b) {
  return a.messages_total == b.messages_total &&
         a.messages_dropped == b.messages_dropped &&
         a.messages_duplicated == b.messages_duplicated &&
         a.messages_by_tag == b.messages_by_tag && a.rounds == b.rounds &&
         a.local_steps == b.local_steps &&
         a.local_steps_per_node == b.local_steps_per_node &&
         a.messages_sent_per_node == b.messages_sent_per_node &&
         a.messages_received_per_node == b.messages_received_per_node;
}

bool backends_agree(const plan& p, const dist::process_factory& factory) {
  const outcome sim = run_on<dist::sim_transport>(p, factory);
  const outcome par = run_on<dist::parallel_transport>(p, factory);
  const outcome inp = run_on<dist::inproc_transport>(p, factory);
  return sim.decisions == par.decisions && stats_equal(sim.stats, par.stats) &&
         sim.decisions == inp.decisions && stats_equal(sim.stats, inp.stats);
}

check::config parity_config() {
  check::config cfg;
  cfg.cases = 25;  // each case runs two full networks
  return cfg;
}

}  // namespace

TEST(TransportConformance, FloodingParityUnderRandomizedTopologiesAndFaults) {
  const auto res = check::for_all<std::uint64_t>(
      "transport.parity.flooding",
      [](std::uint64_t raw) {
        check::random_source rs(raw);
        const plan p = random_plan(rs, /*with_faults=*/true);
        return backends_agree(p, dist::flooding_broadcast(0));
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TransportConformance, EchoWaveParityUnderRandomizedFaults) {
  const auto res = check::for_all<std::uint64_t>(
      "transport.parity.echo_wave",
      [](std::uint64_t raw) {
        check::random_source rs(raw);
        const plan p = random_plan(rs, /*with_faults=*/true);
        return backends_agree(p, dist::echo_wave(0));
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TransportConformance, LeaderElectionParityOnRandomizedRings) {
  const auto res = check::for_all<std::uint64_t>(
      "transport.parity.lcr",
      [](std::uint64_t raw) {
        check::random_source rs(raw);
        plan p = random_plan(rs, /*with_faults=*/true);
        p.opts.topo = dist::topology::ring;  // LCR is a ring algorithm
        p.crash_node = -1;  // LCR's termination assumes live nodes
        return backends_agree(p, dist::lcr_leader_election());
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TransportConformance, ParallelBackendIsSelfDeterministic) {
  // Two runs of the SAME randomized configuration on the parallel backend
  // must agree with each other — scheduling nondeterminism must never leak
  // into decisions or statistics.
  const auto res = check::for_all<std::uint64_t>(
      "transport.parallel.self_determinism",
      [](std::uint64_t raw) {
        check::random_source rs(raw);
        const plan p = random_plan(rs, /*with_faults=*/true);
        const auto a = run_on<dist::parallel_transport>(
            p, dist::bfs_spanning_tree(0));
        const auto b = run_on<dist::parallel_transport>(
            p, dist::bfs_spanning_tree(0));
        return a.decisions == b.decisions && stats_equal(a.stats, b.stats);
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TransportConformance, InprocBackendIsSelfDeterministic) {
  // Same for the shared-memory mailbox backend: cross-thread sends race on
  // the destination mailboxes, but the canonical sort before delivery must
  // erase any interleaving difference between runs.
  const auto res = check::for_all<std::uint64_t>(
      "transport.inproc.self_determinism",
      [](std::uint64_t raw) {
        check::random_source rs(raw);
        const plan p = random_plan(rs, /*with_faults=*/true);
        const auto a =
            run_on<dist::inproc_transport>(p, dist::bfs_spanning_tree(0));
        const auto b =
            run_on<dist::inproc_transport>(p, dist::bfs_spanning_tree(0));
        return a.decisions == b.decisions && stats_equal(a.stats, b.stats);
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TransportConformance, ThreeWayParityAtHundredThousandNodes) {
  // One fixed large configuration inside tier-1: flooding over a 100k-node
  // random connected graph with drops and duplicates.  All three backends
  // must agree bit-for-bit on decisions and the full per-node statistics
  // vectors.  (The million-node twin lives under the `slow` label.)
  plan p;
  p.opts.nodes = 100'000;
  p.opts.topo = dist::topology::random_connected;
  p.opts.mode = dist::timing::synchronous;
  p.opts.seed = 0xC5Au;
  p.opts.workers = 4;
  p.opts.faults.drop = 0.05;
  p.opts.faults.duplicate = 0.05;
  const auto factory = dist::flooding_broadcast(0);
  const outcome sim = run_on<dist::sim_transport>(p, factory);
  const outcome par = run_on<dist::parallel_transport>(p, factory);
  const outcome inp = run_on<dist::inproc_transport>(p, factory);
  EXPECT_GT(sim.stats.messages_total, 100'000u);  // the run actually flooded
  EXPECT_TRUE(stats_equal(sim.stats, par.stats));
  EXPECT_TRUE(stats_equal(sim.stats, inp.stats));
  EXPECT_EQ(sim.decisions, par.decisions);
  EXPECT_EQ(sim.decisions, inp.decisions);
}

namespace {

bool rows_equal(const health::shard_rollup& a, const health::shard_rollup& b) {
  return a.routed == b.routed && a.delivered == b.delivered &&
         a.dropped == b.dropped && a.duplicated == b.duplicated &&
         a.last_active_round == b.last_active_round &&
         a.rounds_active == b.rounds_active &&
         a.latency_count == b.latency_count &&
         a.latency_sum == b.latency_sum && a.depth_count == b.depth_count &&
         a.depth_sum == b.depth_sum &&
         a.latency_buckets == b.latency_buckets &&
         a.depth_buckets == b.depth_buckets;
}

bool health_equal(const health::backend_snapshot& a,
                  const health::backend_snapshot& b) {
  if (a.rounds != b.rounds || a.shards.size() != b.shards.size() ||
      !rows_equal(a.rollup, b.rollup) || a.reservoir_seen != b.reservoir_seen ||
      a.reservoir.size() != b.reservoir.size())
    return false;
  for (std::size_t i = 0; i < a.shards.size(); ++i)
    if (!rows_equal(a.shards[i], b.shards[i])) return false;
  for (std::size_t i = 0; i < a.reservoir.size(); ++i)
    if (a.reservoir[i].shard != b.reservoir[i].shard ||
        a.reservoir[i].round != b.reservoir[i].round ||
        a.reservoir[i].seen != b.reservoir[i].seen)
      return false;
  return true;
}

}  // namespace

TEST(TransportConformance, ParallelMatchesSimAcrossWorkerCountsWithHealth) {
  // The send-site routing of the parallel backend against the simulator:
  // every worker count from 1 to 8 over node counts it does not divide
  // (so the last shard is short), drop + duplicate + churn faults, a
  // multi-tag algorithm, and the health observatory on at 8 and at 16
  // health shards.  Statistics (per tag and per node), decisions and the
  // per-shard health rollups must all equal the simulator's.
  std::size_t multi_tag_cases = 0;
  const auto res = check::for_all<std::uint64_t>(
      "transport.parity.parallel_workers_health",
      [&multi_tag_cases](std::uint64_t raw) {
        check::random_source rs(raw);
        constexpr unsigned kWorkers[] = {1, 2, 3, 5, 8};
        plan p;
        p.opts.workers = kWorkers[rs.below(std::size(kWorkers))];
        const std::size_t w = p.opts.workers;
        // w * k + r with 0 < r < w (any n for one worker).
        p.opts.nodes =
            w * (1 + rs.below(6)) + (w == 1 ? 2 : 1 + rs.below(w - 1));
        p.opts.seed = static_cast<std::uint32_t>(rs.bits());
        p.opts.faults.drop = 0.05 * static_cast<double>(1 + rs.below(3));
        p.opts.faults.duplicate = 0.05 * static_cast<double>(1 + rs.below(3));
        p.opts.faults.churn_crash = 0.05;
        p.opts.faults.churn_recover = 0.3;
        p.opts.faults.churn_until = 2 + rs.below(6);
        // Echo wave (probe/echo) on any topology, or Hirschberg-Sinclair
        // (probe/reply/leader) on a ring.
        const bool ring_election = rs.chance(50);
        const auto topos = dist::all_topologies();
        p.opts.topo = ring_election ? dist::topology::ring
                                    : topos[rs.below(topos.size())];
        const dist::process_factory factory =
            ring_election ? dist::hs_leader_election() : dist::echo_wave(0);
        auto& obs = health::observatory::global();
        obs.enable({.shards = rs.chance(50) ? std::size_t{8} : std::size_t{16},
                    .reservoir_k = 4,
                    .seed = raw,
                    .manual_clock = true,
                    .rules = {}});
        const outcome sim = run_on<dist::sim_transport>(p, factory);
        const outcome par = run_on<dist::parallel_transport>(p, factory);
        const auto snaps = obs.snapshots();
        obs.disable();
        obs.reset();
        if (sim.stats.messages_by_tag.size() > 1) ++multi_tag_cases;
        const health::backend_snapshot* hs_sim = nullptr;
        const health::backend_snapshot* hs_par = nullptr;
        for (const auto& snap : snaps) {
          if (snap.name == "sim") hs_sim = &snap;
          if (snap.name == "parallel") hs_par = &snap;
        }
        // The health counts are anchored to the run statistics, so a fold
        // both backends got wrong the same way still fails.
        return hs_sim != nullptr && hs_par != nullptr &&
               hs_sim->rollup.routed == sim.stats.messages_total &&
               hs_sim->rollup.dropped == sim.stats.messages_dropped &&
               hs_sim->rollup.duplicated == sim.stats.messages_duplicated &&
               hs_sim->rollup.delivered == sim.stats.messages_total -
                                               sim.stats.messages_dropped +
                                               sim.stats.messages_duplicated &&
               health_equal(*hs_sim, *hs_par) &&
               sim.decisions == par.decisions &&
               stats_equal(sim.stats, par.stats);
      },
      parity_config());
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_GT(multi_tag_cases, 0u) << "no case ran more than one tag";
}
