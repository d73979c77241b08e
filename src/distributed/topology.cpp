#include "distributed/topology.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cgp::distributed {

const char* to_string(topology t) {
  switch (t) {
    case topology::ring:
      return "ring";
    case topology::complete:
      return "complete";
    case topology::star:
      return "star";
    case topology::grid:
      return "grid";
    case topology::random_connected:
      return "random_connected";
    case topology::line:
      return "line";
    case topology::torus:
      return "torus";
    case topology::random_regular:
      return "random_regular";
    case topology::power_law:
      return "power_law";
  }
  return "?";
}

std::span<const topology> all_topologies() noexcept {
  static constexpr std::array<topology, 9> all = {
      topology::ring,         topology::complete,
      topology::star,         topology::grid,
      topology::random_connected, topology::line,
      topology::torus,        topology::random_regular,
      topology::power_law};
  return all;
}

// --- CSR construction -------------------------------------------------------

csr_topology csr_topology::from_edges(
    std::size_t nodes, std::span<const std::pair<int, int>> edge_list) {
  csr_topology out;
  for (const auto& [a, b] : edge_list) {
    if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= nodes ||
        static_cast<std::size_t>(b) >= nodes)
      throw std::invalid_argument(
          "csr_topology::from_edges: edge (" + std::to_string(a) + ", " +
          std::to_string(b) + ") out of range for " + std::to_string(nodes) +
          " nodes");
  }
  // Counting sort into rows: degree pass, exclusive prefix, scatter both
  // directions of every non-loop edge.
  out.offsets_.assign(nodes + 1, 0);
  for (const auto& [a, b] : edge_list) {
    if (a == b) continue;  // self-loop-free invariant
    ++out.offsets_[static_cast<std::size_t>(a) + 1];
    ++out.offsets_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t v = 0; v < nodes; ++v)
    out.offsets_[v + 1] += out.offsets_[v];
  out.edges_.resize(out.offsets_[nodes]);
  std::vector<std::uint64_t> cursor(out.offsets_.begin(),
                                    out.offsets_.end() - 1);
  for (const auto& [a, b] : edge_list) {
    if (a == b) continue;
    out.edges_[cursor[static_cast<std::size_t>(a)]++] = b;
    out.edges_[cursor[static_cast<std::size_t>(b)]++] = a;
  }
  // Sort and dedupe each row in place, then compact the arrays.
  std::uint64_t write = 0;
  std::uint64_t row_begin = 0;
  for (std::size_t v = 0; v < nodes; ++v) {
    const std::uint64_t row_end = out.offsets_[v + 1];
    const auto first = out.edges_.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto last = out.edges_.begin() + static_cast<std::ptrdiff_t>(row_end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    const std::uint64_t kept =
        static_cast<std::uint64_t>(unique_end - first);
    std::move(first, unique_end,
              out.edges_.begin() + static_cast<std::ptrdiff_t>(write));
    write += kept;
    row_begin = row_end;  // next row starts where the unsorted one ended
    out.offsets_[v + 1] = write;
  }
  out.edges_.resize(write);
  out.edges_.shrink_to_fit();
  return out;
}

bool csr_topology::is_adjacent(int a, int b) const noexcept {
  if (a < 0 || static_cast<std::size_t>(a) >= node_count()) return false;
  const auto row = neighbors(static_cast<std::size_t>(a));
  return std::binary_search(row.begin(), row.end(), b);
}

// --- edge-list builders -----------------------------------------------------

std::vector<std::pair<int, int>> build_edge_list(topology topo, std::size_t n,
                                                 std::mt19937& rng) {
  std::vector<std::pair<int, int>> edges;
  const auto link = [&](std::size_t a, std::size_t b) {
    edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
  };
  switch (topo) {
    case topology::ring:
      // n == 1 produces the self-loop (0, 0), which CSR-ification strips —
      // matching the legacy constructor's explicit 1-node clear.
      for (std::size_t i = 0; i < n; ++i) link(i, (i + 1) % n);
      break;
    case topology::line:
      for (std::size_t i = 0; i + 1 < n; ++i) link(i, i + 1);
      break;
    case topology::complete:
      edges.reserve(n * (n - 1) / 2);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) link(i, j);
      break;
    case topology::star:
      for (std::size_t i = 1; i < n; ++i) link(0, i);
      break;
    case topology::grid: {
      const std::size_t side =
          static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = i / side, c = i % side;
        if (c + 1 < side && i + 1 < n) link(i, i + 1);
        if ((r + 1) * side + c < n) link(i, (r + 1) * side + c);
      }
      break;
    }
    case topology::random_connected: {
      // Random spanning tree + extra random edges: connected by
      // construction.  Consumes rng identically to the legacy builder
      // (duplicate extras are appended instead of skipped — the dedupe in
      // from_edges makes the final graph identical).
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t i = 1; i < n; ++i) {
        std::uniform_int_distribution<std::size_t> pick(0, i - 1);
        link(order[i], order[pick(rng)]);
      }
      std::uniform_int_distribution<std::size_t> any(0, n - 1);
      for (std::size_t extra = 0; extra < n / 2; ++extra) {
        const std::size_t a = any(rng);
        const std::size_t b = any(rng);
        if (a == b) continue;
        link(a, b);
      }
      break;
    }
    case topology::torus: {
      // Row-major grid with wraparound in both directions.  Partial last
      // rows wrap within their own length (horizontally) and past
      // themselves to the top row (vertically); degenerate wraps become
      // self-loops or duplicates and are stripped by CSR-ification.
      const std::size_t side = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
      const std::size_t rows = (n + side - 1) / side;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = i / side, c = i % side;
        const std::size_t row_len = std::min(side, n - r * side);
        link(i, r * side + (c + 1) % row_len);
        std::size_t down = (r + 1 < rows) ? (r + 1) * side + c : c;
        if (down >= n) down = c;  // past a short last row: wrap to the top
        link(i, down);
      }
      break;
    }
    case topology::random_regular: {
      // Stub pairing with target degree 4: four stubs per node, shuffled,
      // paired consecutively.  Self-loop pairs and duplicate pairs are
      // stripped by CSR-ification, so realized degrees are <= 4 and
      // concentrate at 4; the diameter is Theta(log n) with high
      // probability — the topology the large-n differential oracles use.
      constexpr std::size_t kDegree = 4;
      std::vector<int> stubs;
      stubs.reserve(n * kDegree);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t d = 0; d < kDegree; ++d)
          stubs.push_back(static_cast<int>(i));
      std::shuffle(stubs.begin(), stubs.end(), rng);
      for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
        edges.emplace_back(stubs[i], stubs[i + 1]);
      break;
    }
    case topology::power_law: {
      // Barabási–Albert preferential attachment, m = 2: each new node
      // links to two endpoints sampled with probability proportional to
      // their current degree.  Early nodes become hubs.
      constexpr std::size_t kAttach = 2;
      std::vector<int> endpoints;  // every edge endpoint, repeated by degree
      endpoints.reserve(2 * kAttach * n);
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t links = std::min(kAttach, i);
        for (std::size_t k = 0; k < links; ++k) {
          int target;
          if (endpoints.empty()) {
            target = 0;
          } else {
            std::uniform_int_distribution<std::size_t> pick(
                0, endpoints.size() - 1);
            target = endpoints[pick(rng)];
          }
          edges.emplace_back(static_cast<int>(i), target);
          endpoints.push_back(static_cast<int>(i));
          endpoints.push_back(target);
        }
      }
      break;
    }
  }
  return edges;
}

csr_topology build_topology(topology topo, std::size_t n, std::mt19937& rng) {
  return csr_topology::from_edges(n, build_edge_list(topo, n, rng));
}

}  // namespace cgp::distributed
