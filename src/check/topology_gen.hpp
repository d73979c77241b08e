// Generators and shrinkers for the CSR-topology fuzzer (DESIGN.md §8 meets
// §13): seeded random graph cases for `for_all`, with greedy shrinking to
// minimal counterexamples.
//
// Two case shapes:
//
//   * `edge_list_case` — a RAW undirected edge list drawn from several
//     degree-distribution profiles (uniform scatter, hub-centred, chain)
//     and deliberately hostile inputs: self-loops, duplicate edges in both
//     orientations, and disconnected components (edges are sparse over the
//     node range, so isolated vertices abound).  Exercises
//     `csr_topology::from_edges` invariants directly.
//
//   * `topology_case` — a (builder, node count, seed) triple over every
//     `distributed::topology` value.  Exercises the production path:
//     `build_topology` must be permutation-equal to the legacy
//     per-node-vector construction (`build_adjacency_reference`) on the
//     same seed, consuming the rng identically.
//
// Shrinking drops edges (halves, then one at a time from the front),
// halves node counts, and steers builders toward the simplest topology, so
// a reported counterexample is close to minimal.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/gen.hpp"
#include "check/shrink.hpp"
#include "distributed/topology.hpp"

namespace cgp::check {

/// Edge list -> legacy per-node vectors (push both directions, sort each
/// row, dedupe): the oracle the fuzzer diffs `csr_topology` against.
[[nodiscard]] inline std::vector<std::vector<int>> build_adjacency_reference(
    std::size_t nodes, std::span<const std::pair<int, int>> edge_list) {
  std::vector<std::vector<int>> adjacency(nodes);
  for (const auto& [a, b] : edge_list) {
    if (a == b) continue;
    adjacency[static_cast<std::size_t>(a)].push_back(b);
    adjacency[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& adj : adjacency) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  return adjacency;
}

// ---------------------------------------------------------------------------
// Raw edge lists
// ---------------------------------------------------------------------------

struct edge_list_case {
  std::size_t nodes = 1;
  std::vector<std::pair<int, int>> edges;

  friend bool operator==(const edge_list_case&,
                         const edge_list_case&) = default;
};

template <>
struct arbitrary<edge_list_case> {
  static edge_list_case generate(random_source& rs) {
    edge_list_case c;
    c.nodes = 1 + rs.below(64);
    const std::size_t m = rs.below(4 * c.nodes + 1);
    c.edges.reserve(m);
    const auto node = [&] { return static_cast<int>(rs.below(c.nodes)); };
    for (std::size_t k = 0; k < m; ++k) {
      const int a = node();
      int b = 0;
      switch (rs.below(4)) {
        case 0:  // uniform scatter
          b = node();
          break;
        case 1:  // explicit self-loop (must be stripped)
          b = a;
          break;
        case 2:  // hub profile: many edges into a small cluster
          b = static_cast<int>(rs.below(std::max<std::size_t>(1, c.nodes / 8)));
          break;
        default:  // chain profile: near-neighbor edges
          b = static_cast<int>(
              std::min(c.nodes - 1, static_cast<std::size_t>(a) + 1));
          break;
      }
      c.edges.emplace_back(a, b);
      if (rs.chance(15))  // duplicate, sometimes flipped
        c.edges.emplace_back(rs.chance(50) ? std::pair{a, b}
                                           : std::pair{b, a});
    }
    return c;
  }
};

template <>
struct shrinker<edge_list_case> {
  static std::vector<edge_list_case> candidates(const edge_list_case& c) {
    std::vector<edge_list_case> out;
    if (!c.edges.empty()) {
      // First half of the edges, then drop a single edge at a time (from
      // the front, capped so shrink sweeps stay cheap).
      edge_list_case half = c;
      half.edges.resize(c.edges.size() / 2);
      out.push_back(std::move(half));
      const std::size_t single_drops = std::min<std::size_t>(16, c.edges.size());
      for (std::size_t i = 0; i < single_drops; ++i) {
        edge_list_case d = c;
        d.edges.erase(d.edges.begin() + static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(d));
      }
    }
    if (c.nodes > 1) {
      // Halve the node range, keeping only edges that still fit.
      edge_list_case small;
      small.nodes = c.nodes / 2;
      for (const auto& [a, b] : c.edges)
        if (static_cast<std::size_t>(a) < small.nodes &&
            static_cast<std::size_t>(b) < small.nodes)
          small.edges.emplace_back(a, b);
      out.push_back(std::move(small));
    }
    return out;
  }
};

[[nodiscard]] inline std::string display_value(const edge_list_case& c) {
  std::string out =
      "{nodes=" + std::to_string(c.nodes) + ", edges=[";
  for (std::size_t i = 0; i < c.edges.size(); ++i) {
    if (i != 0) out += ", ";
    out += "(" + std::to_string(c.edges[i].first) + "," +
           std::to_string(c.edges[i].second) + ")";
  }
  return out + "]}";
}

// ---------------------------------------------------------------------------
// Builder cases
// ---------------------------------------------------------------------------

struct topology_case {
  std::size_t nodes = 1;
  std::uint32_t seed = 0;
  distributed::topology topo = distributed::topology::ring;

  friend bool operator==(const topology_case&, const topology_case&) = default;
};

template <>
struct arbitrary<topology_case> {
  static topology_case generate(random_source& rs) {
    const auto all = distributed::all_topologies();
    topology_case c;
    c.nodes = 1 + rs.below(96);
    c.seed = static_cast<std::uint32_t>(rs.bits());
    c.topo = all[rs.below(all.size())];
    return c;
  }
};

template <>
struct shrinker<topology_case> {
  static std::vector<topology_case> candidates(const topology_case& c) {
    std::vector<topology_case> out;
    if (c.nodes > 1) {
      topology_case half = c;
      half.nodes = c.nodes / 2;
      out.push_back(half);
      topology_case one = c;
      one.nodes = 1;
      out.push_back(one);
    }
    if (c.seed != 0) {
      topology_case zero_seed = c;
      zero_seed.seed = 0;
      out.push_back(zero_seed);
    }
    if (c.topo != distributed::topology::ring) {
      topology_case ring = c;
      ring.topo = distributed::topology::ring;
      out.push_back(ring);
    }
    return out;
  }
};

[[nodiscard]] inline std::string display_value(const topology_case& c) {
  return std::string("{topo=") + distributed::to_string(c.topo) +
         ", nodes=" + std::to_string(c.nodes) +
         ", seed=" + std::to_string(c.seed) + "}";
}

}  // namespace cgp::check
