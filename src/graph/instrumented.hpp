// Operation-counted entry points for the graph algorithms, mirroring
// sequences/instrumented.hpp: the visitor/weight-function hooks the
// concept-generic algorithms already expose are exactly the places where
// Section 4's "measured" operation counts can be collected without
// touching the algorithms themselves.  Metrics land under `graph.<algo>.*`
// and each wrapper returns its operation count for complexity checking.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/executor.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::graph::instrumented {

namespace detail {

/// One algorithm's `graph.<algorithm>.*` handles, resolved once (a
/// function-local static in each wrapper), so a counted call costs five
/// relaxed adds and no name building or registry lookup.
struct report_site {
  telemetry::counter& calls;
  telemetry::counter& operations;
  telemetry::counter& vertices;
  telemetry::counter& edges;
  telemetry::histogram& operations_per_call;

  explicit report_site(const std::string& base)
      : calls(telemetry::registry::global().get_counter(base + ".calls")),
        operations(
            telemetry::registry::global().get_counter(base + ".operations")),
        vertices(telemetry::registry::global().get_counter(base + ".vertices")),
        edges(telemetry::registry::global().get_counter(base + ".edges")),
        operations_per_call(telemetry::registry::global().get_histogram(
            base + ".operations_per_call")) {}

  void operator()(std::uint64_t ops, std::uint64_t n_vertices,
                  std::uint64_t n_edges) const {
    calls.add();
    operations.add(ops);
    vertices.add(n_vertices);
    edges.add(n_edges);
    operations_per_call.record(ops);
  }
};

/// Edge count when the graph type exposes one; 0 for graphs that don't.
template <class G>
std::uint64_t edge_count_of(const G& g) {
  if constexpr (requires { num_edges(g); })
    return static_cast<std::uint64_t>(num_edges(g));
  else
    return 0;
}

/// BFS visitor counting edge examinations (the O(V + E) currency).
template <class G>
struct counting_bfs_visitor {
  std::uint64_t* ops;
  void discover_vertex(core::vertex_t<G>, const G&) { ++*ops; }
  void examine_edge(const core::edge_t<G>&, const G&) { ++*ops; }
  void tree_edge(const core::edge_t<G>&, const G&) {}
  void finish_vertex(core::vertex_t<G>, const G&) {}
};

}  // namespace detail

/// BFS distances, counting vertex discoveries + edge examinations.
/// Returns (distances, operation count).
template <core::VertexListGraph G>
std::pair<std::vector<long>, std::uint64_t> bfs_distances(
    const G& g, core::vertex_t<G> start) {
  static const telemetry::scope_site kBfs({.frame = "graph.bfs"});
  const telemetry::scope bfs_scope(kBfs);
  static const detail::report_site kReport("graph.bfs");
  std::uint64_t ops = 0;
  auto dist =
      breadth_first_search(g, start, detail::counting_bfs_visitor<G>{&ops});
  kReport(ops, num_vertices(g), detail::edge_count_of(g));
  return {std::move(dist), ops};
}

/// Dijkstra, counting edge relaxation attempts (weight-function calls).
/// Returns (distances, predecessors, operation count).
template <core::VertexListGraph G, class WeightFn>
  requires requires(WeightFn w, core::edge_t<G> e) {
    { w(e) } -> std::convertible_to<double>;
  }
std::pair<std::pair<std::vector<double>, std::vector<core::vertex_t<G>>>,
          std::uint64_t>
dijkstra_shortest_paths(const G& g, core::vertex_t<G> start, WeightFn weight) {
  static const detail::report_site kReport("graph.dijkstra");
  std::uint64_t ops = 0;
  auto counted = [&ops, &weight](const core::edge_t<G>& e) -> double {
    ++ops;
    return weight(e);
  };
  auto result = graph::dijkstra_shortest_paths(g, start, counted);
  kReport(ops, num_vertices(g), detail::edge_count_of(g));
  return {std::move(result), ops};
}

/// Kruskal MST, counting comparator calls of the edge sort plus one union
/// per edge (its O(E log E) cost is dominated by the sort — the library's
/// own concept-dispatched cgp::sequences::sort).
template <class P>
std::pair<std::vector<edge<P>>, std::uint64_t> kruskal_mst(
    const adjacency_list<P>& g) {
  static const detail::report_site kReport("graph.kruskal");
  std::uint64_t ops = 0;
  std::vector<edge<P>> sorted = g.all_edges();
  const std::uint64_t edge_total = sorted.size();
  cgp::sequences::sort(sorted.begin(), sorted.end(),
                       [&ops](const edge<P>& a, const edge<P>& b) {
                         ++ops;
                         return a.property < b.property;
                       });
  disjoint_sets sets(g.vertex_count());
  std::vector<edge<P>> mst;
  for (const edge<P>& e : sorted) {
    ++ops;
    if (sets.unite(e.src, e.dst)) mst.push_back(e);
  }
  kReport(ops, g.vertex_count(), edge_total);
  return {std::move(mst), ops};
}

/// PageRank by damped power iteration over out-edges, counting one
/// operation per edge traversal per sweep (the O(k·(V + E)) currency).
/// Dangling mass is redistributed uniformly so ranks stay a distribution.
/// Returns (ranks, operation count).
template <class P>
std::pair<std::vector<double>, std::uint64_t> pagerank(
    const adjacency_list<P>& g, std::size_t iterations = 20,
    double damping = 0.85) {
  static const telemetry::scope_site kPagerank({.frame = "graph.pagerank"});
  const telemetry::scope pagerank_scope(kPagerank);
  const std::size_t n = g.vertex_count();
  static const detail::report_site kReport("graph.pagerank");
  std::uint64_t ops = 0;
  if (n == 0) {
    kReport(ops, 0, 0);
    return {{}, ops};
  }
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    static const telemetry::scope_site kIter(
        {.frame = "graph.pagerank.iteration"});
    const telemetry::scope iter_scope(kIter);
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      ++ops;
      const auto& out = g.out_edges_of(v);
      if (out.empty()) {
        dangling += rank[v];
        continue;
      }
      const double share = rank[v] / static_cast<double>(out.size());
      for (const auto& e : out) {
        ++ops;
        next[e.dst] += share;
      }
    }
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    for (std::size_t v = 0; v < n; ++v) next[v] = base + damping * next[v];
    rank.swap(next);
  }
  kReport(ops, n, detail::edge_count_of(g));
  return {std::move(rank), ops};
}

// ---------------------------------------------------------------------------
// Executor-parallel entry points
// ---------------------------------------------------------------------------
//
// Both take ANY Executor (concept-bounded, like the Section 4 algorithms):
// the same call runs over the work_stealing_pool — where the irregular
// per-vertex degree distribution is exactly what stealing rebalances — or
// the inline archetype (serial proof build).

/// Level-synchronous parallel BFS.  Each level's frontier is expanded in
/// parallel; discovery claims a vertex with a compare-exchange on its
/// distance slot, so every vertex is discovered exactly once.  Distances
/// match the sequential `bfs_distances` exactly (BFS depth is
/// order-independent).  Returns (distances, operation count).
template <class P, parallel::Executor E = parallel::work_stealing_pool>
std::pair<std::vector<long>, std::uint64_t> bfs_distances_parallel(
    const adjacency_list<P>& g, std::size_t start,
    E& exec = parallel::work_stealing_pool::default_pool(),
    std::size_t grain = 128) {
  static const telemetry::scope_site kBfs({.frame = "graph.bfs_parallel"});
  const telemetry::scope bfs_scope(kBfs);
  const std::size_t n = g.vertex_count();
  static const detail::report_site kReport("graph.bfs_parallel");
  std::uint64_t ops = 0;
  if (n == 0 || start >= n) {
    kReport(ops, n, detail::edge_count_of(g));
    return {std::vector<long>(n, -1), ops};
  }
  std::vector<std::atomic<long>> dist(n);
  for (auto& d : dist) d.store(-1, std::memory_order_relaxed);
  dist[start].store(0, std::memory_order_relaxed);
  std::vector<std::size_t> frontier{start};
  long level = 0;
  while (!frontier.empty()) {
    const auto [chunks, size] =
        parallel::detail::chunks_for(frontier.size(), exec, grain);
    std::vector<std::vector<std::size_t>> next_local(
        std::max<std::size_t>(chunks, 1));
    std::vector<std::uint64_t> ops_local(std::max<std::size_t>(chunks, 1), 0);
    const long next_level = level + 1;
    auto expand = [&](std::size_t c) {
      const std::size_t lo = c * size;
      const std::size_t hi = std::min(lo + size, frontier.size());
      std::uint64_t local_ops = 0;
      auto& out_frontier = next_local[c];
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t v = frontier[i];
        ++local_ops;  // vertex visit
        for (const auto& e : g.out_edges_of(v)) {
          ++local_ops;  // edge examination
          long expected = -1;
          if (dist[e.dst].compare_exchange_strong(expected, next_level,
                                                  std::memory_order_acq_rel))
            out_frontier.push_back(e.dst);
        }
      }
      ops_local[c] = local_ops;
    };
    if (chunks <= 1) {
      expand(0);
    } else {
      parallel::detail::run_chunks_on(exec, chunks, expand);
    }
    // Merge in chunk order: the next frontier (and therefore every later
    // expansion order) is deterministic for a fixed chunking.
    std::vector<std::size_t> next;
    for (auto& local : next_local)
      next.insert(next.end(), local.begin(), local.end());
    for (const std::uint64_t o : ops_local) ops += o;
    frontier.swap(next);
    level = next_level;
  }
  std::vector<long> out(n);
  for (std::size_t v = 0; v < n; ++v)
    out[v] = dist[v].load(std::memory_order_relaxed);
  kReport(ops, n, detail::edge_count_of(g));
  return {std::move(out), ops};
}

/// Parallel PageRank.  Each sweep scatters rank shares into CHUNK-LOCAL
/// accumulator vectors (no write sharing, no atomics on the hot loop) and
/// a second parallel pass merges them per-vertex in chunk-index order —
/// the addition order is fixed, so results are deterministic for a given
/// executor width.  Returns (ranks, operation count).
template <class P, parallel::Executor E = parallel::work_stealing_pool>
std::pair<std::vector<double>, std::uint64_t> pagerank_parallel(
    const adjacency_list<P>& g, E& exec = parallel::work_stealing_pool::default_pool(),
    std::size_t iterations = 20, double damping = 0.85,
    std::size_t grain = 64) {
  static const telemetry::scope_site kPagerank(
      {.frame = "graph.pagerank_parallel"});
  const telemetry::scope pagerank_scope(kPagerank);
  const std::size_t n = g.vertex_count();
  static const detail::report_site kReport("graph.pagerank_parallel");
  std::uint64_t ops = 0;
  if (n == 0) {
    kReport(ops, 0, 0);
    return {{}, ops};
  }
  const auto [chunks, size] = parallel::detail::chunks_for(n, exec, grain);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  if (chunks <= 1) {
    auto result = pagerank(g, iterations, damping);
    kReport(result.second, n, detail::edge_count_of(g));
    return result;
  }
  std::vector<std::vector<double>> local(chunks,
                                         std::vector<double>(n, 0.0));
  std::vector<double> dangling_local(chunks, 0.0);
  std::vector<std::uint64_t> ops_local(chunks, 0);
  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    static const telemetry::scope_site kIter(
        {.frame = "graph.pagerank_parallel.iteration"});
    const telemetry::scope iter_scope(kIter);
    // Scatter phase: chunk c writes only local[c] — zero sharing.
    parallel::detail::run_chunks_on(exec, chunks, [&, size =
                                                          size](std::size_t c) {
      auto& mine = local[c];
      std::fill(mine.begin(), mine.end(), 0.0);
      double dangling = 0.0;
      std::uint64_t my_ops = 0;
      const std::size_t lo = c * size;
      const std::size_t hi = std::min(lo + size, n);
      for (std::size_t v = lo; v < hi; ++v) {
        ++my_ops;
        const auto& out = g.out_edges_of(v);
        if (out.empty()) {
          dangling += rank[v];
          continue;
        }
        const double share = rank[v] / static_cast<double>(out.size());
        for (const auto& e : out) {
          ++my_ops;
          mine[e.dst] += share;
        }
      }
      dangling_local[c] = dangling;
      ops_local[c] = my_ops;
    });
    double dangling = 0.0;
    for (const double d : dangling_local) dangling += d;
    for (const std::uint64_t o : ops_local) ops += o;
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    // Merge phase: vertex-parallel; per-vertex sum runs in chunk-index
    // order, so the floating-point result is independent of scheduling.
    parallel::detail::run_chunks_on(exec, chunks,
                                    [&, size = size](std::size_t c) {
                                      const std::size_t lo = c * size;
                                      const std::size_t hi =
                                          std::min(lo + size, n);
                                      for (std::size_t v = lo; v < hi; ++v) {
                                        double acc = 0.0;
                                        for (std::size_t k = 0; k < chunks;
                                             ++k)
                                          acc += local[k][v];
                                        next[v] = base + damping * acc;
                                      }
                                    });
    rank.swap(next);
  }
  kReport(ops, n, detail::edge_count_of(g));
  return {std::move(rank), ops};
}

}  // namespace cgp::graph::instrumented
