// Conformance suite for the CSR topology module (DESIGN.md §13): fuzzed
// structural invariants and a differential oracle against the legacy
// per-node-vector adjacency construction.
//
// Properties:
//   * `from_edges` on ARBITRARY edge lists (self-loops, duplicates in both
//     orientations, disconnected components, hub/chain degree profiles)
//     produces a well-formed CSR: monotone offsets, sorted strictly-unique
//     self-loop-free rows, symmetric adjacency — and its rows are exactly
//     the legacy construction's rows for the same input.
//   * Every `build_topology(topo, n, seed)` matches the reference built
//     from `build_edge_list` on the same seed, and consumes the rng
//     identically (the uid shuffle that follows must see the same stream).
//   * Degree-distribution shape checks per builder: star/complete degrees,
//     random_regular's <= 4 cap, connectivity of the connected-by-
//     construction builders.
// Failures print a CGP_CHECK_SEED reproduction line and shrink to a
// minimal case via check/topology_gen.hpp.
#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "check/gtest_support.hpp"
#include "check/property.hpp"
#include "check/topology_gen.hpp"
#include "distributed/topology.hpp"

namespace check = cgp::check;
namespace dist = cgp::distributed;

CGP_REGISTER_SEED_BANNER();

namespace {

/// Structural CSR invariants: sized/monotone offsets, rows sorted with no
/// duplicates or self-loops, every endpoint in range, symmetric adjacency,
/// and edge accounting (each undirected edge stored exactly twice).
testing::AssertionResult csr_well_formed(const dist::csr_topology& t,
                                         std::size_t nodes) {
  const auto& off = t.offsets();
  const auto& edges = t.edges();
  if (off.size() != nodes + 1 || off.front() != 0)
    return testing::AssertionFailure() << "offsets shape wrong";
  for (std::size_t v = 0; v < nodes; ++v)
    if (off[v] > off[v + 1])
      return testing::AssertionFailure() << "offsets not monotone at " << v;
  if (off.back() != edges.size())
    return testing::AssertionFailure() << "offsets do not cover edges array";
  if (edges.size() % 2 != 0 || t.edge_count() * 2 != edges.size())
    return testing::AssertionFailure() << "edge accounting off";
  for (std::size_t v = 0; v < nodes; ++v) {
    const auto row = t.neighbors(v);
    if (row.size() != t.degree(v))
      return testing::AssertionFailure() << "degree mismatch at " << v;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const int nb = row[k];
      if (nb < 0 || static_cast<std::size_t>(nb) >= nodes)
        return testing::AssertionFailure()
               << "neighbor " << nb << " of " << v << " out of range";
      if (nb == static_cast<int>(v))
        return testing::AssertionFailure() << "self-loop at " << v;
      if (k > 0 && row[k - 1] >= nb)
        return testing::AssertionFailure()
               << "row of " << v << " not strictly sorted";
      if (!t.is_adjacent(nb, static_cast<int>(v)))
        return testing::AssertionFailure()
               << "asymmetric edge " << v << " -> " << nb;
    }
  }
  return testing::AssertionSuccess();
}

/// CSR rows == legacy rows (both sorted + deduped, so plain equality IS
/// permutation equality of the underlying multisets).
bool matches_reference(const dist::csr_topology& t,
                       const std::vector<std::vector<int>>& ref) {
  if (t.node_count() != ref.size()) return false;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    const auto row = t.neighbors(v);
    if (!std::equal(row.begin(), row.end(), ref[v].begin(), ref[v].end()))
      return false;
  }
  return true;
}

bool connected(const dist::csr_topology& t) {
  const std::size_t n = t.node_count();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::queue<std::size_t> q;
  q.push(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (const int nb : t.neighbors(v))
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        ++visited;
        q.push(static_cast<std::size_t>(nb));
      }
  }
  return visited == n;
}

}  // namespace

TEST(TopologyFuzz, FromEdgesInvariantsAndReferenceParity) {
  const auto res = check::for_all<check::edge_list_case>(
      "topology.csr.from_edges",
      [](const check::edge_list_case& c) {
        const auto t = dist::csr_topology::from_edges(c.nodes, c.edges);
        if (!csr_well_formed(t, c.nodes)) return false;
        return matches_reference(
            t, check::build_adjacency_reference(c.nodes, c.edges));
      });
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TopologyFuzz, BuildersMatchLegacyConstructionOnSameSeed) {
  const auto res = check::for_all<check::topology_case>(
      "topology.csr.builder_reference_parity",
      [](const check::topology_case& c) {
        std::mt19937 rng_list(c.seed);
        const auto edge_list =
            dist::build_edge_list(c.topo, c.nodes, rng_list);
        std::mt19937 rng_csr(c.seed);
        const auto t = dist::build_topology(c.topo, c.nodes, rng_csr);
        if (rng_list != rng_csr) return false;  // divergent rng consumption
        if (!csr_well_formed(t, c.nodes)) return false;
        return matches_reference(
            t, check::build_adjacency_reference(c.nodes, edge_list));
      });
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TopologyFuzz, DegreeDistributionsPerBuilder) {
  const auto res = check::for_all<check::topology_case>(
      "topology.csr.degree_distributions",
      [](const check::topology_case& c) {
        std::mt19937 rng(c.seed);
        const auto t = dist::build_topology(c.topo, c.nodes, rng);
        const std::size_t n = c.nodes;
        switch (c.topo) {
          case dist::topology::ring:
          case dist::topology::line:
            for (std::size_t v = 0; v < n; ++v)
              if (t.degree(v) > 2) return false;
            return connected(t);
          case dist::topology::complete:
            for (std::size_t v = 0; v < n; ++v)
              if (t.degree(v) != n - 1) return false;
            return connected(t);
          case dist::topology::star:
            if (n > 1 && t.degree(0) != n - 1) return false;
            for (std::size_t v = 1; v < n; ++v)
              if (t.degree(v) != 1) return false;
            return connected(t);
          case dist::topology::grid:
          case dist::topology::torus:
            for (std::size_t v = 0; v < n; ++v)
              if (t.degree(v) > 4) return false;
            return connected(t);
          case dist::topology::random_connected:
          case dist::topology::power_law:
            // Connected by construction (spanning tree / preferential
            // attachment to the existing component).
            return connected(t);
          case dist::topology::random_regular:
            // Stub pairing caps realized degrees at 4 (loops and
            // duplicate pairs are stripped); connectivity is only
            // high-probability, so it is NOT asserted.
            for (std::size_t v = 0; v < n; ++v)
              if (t.degree(v) > 4) return false;
            return true;
        }
        return false;
      });
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(TopologyFuzz, ShrinkingProducesMinimalCounterexample) {
  // Plant a falsifiable property — "no node ever reaches degree 3" — and
  // check the shrinker walks the failing case down to a small one instead
  // of reporting the raw random graph.
  check::config cfg;
  cfg.cases = 60;
  const auto res = check::for_all<check::edge_list_case>(
      "topology.csr.shrink_demo",
      [](const check::edge_list_case& c) {
        const auto t = dist::csr_topology::from_edges(c.nodes, c.edges);
        for (std::size_t v = 0; v < c.nodes; ++v)
          if (t.degree(v) >= 3) return false;
        return true;
      },
      cfg);
  ASSERT_TRUE(res.falsified) << "generator never built a degree-3 node";
  // The minimal witness needs only a hub with three distinct neighbors:
  // shrinking must land at or very near that 3-edge graph.
  EXPECT_GT(res.shrink_steps, 0u);
  ASSERT_EQ(res.counterexample.size(), 1u);
}

TEST(TopologyBasics, SingleNodeAndEmptyRows) {
  std::mt19937 rng(7);
  for (const auto topo : dist::all_topologies()) {
    const auto t = dist::build_topology(topo, 1, rng);
    EXPECT_EQ(t.node_count(), 1u) << dist::to_string(topo);
    EXPECT_EQ(t.degree(0), 0u) << dist::to_string(topo);  // loops stripped
    EXPECT_FALSE(t.is_adjacent(0, 0)) << dist::to_string(topo);
  }
  const dist::csr_topology empty;
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);
}

TEST(TopologyBasics, FromEdgesRejectsOutOfRangeEndpoints) {
  const std::vector<std::pair<int, int>> bad = {{0, 3}};
  EXPECT_THROW(dist::csr_topology::from_edges(3, bad), std::invalid_argument);
  const std::vector<std::pair<int, int>> negative = {{-1, 0}};
  EXPECT_THROW(dist::csr_topology::from_edges(3, negative),
               std::invalid_argument);
}
