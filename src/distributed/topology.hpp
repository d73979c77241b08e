// Shared immutable CSR topologies for the distributed runtime (DESIGN.md
// §13).
//
// The pre-scale engine stored adjacency as one `std::vector<int>` per node
// — a million nodes meant a million separately allocated vectors and a
// pointer chase per neighbor scan.  `csr_topology` is the compressed
// sparse row replacement: one offsets array (n+1 entries) and one edges
// array (2·E entries, each undirected edge appearing in both endpoint
// rows), rows sorted and deduplicated, self-loop-free by construction.
// Neighbor access is a contiguous `std::span<const int>`; adjacency tests
// are a binary search in the row.
//
// Construction is split in two so the fuzzer can diff them:
//   * `build_edge_list` — the deterministic generator per (topology, n,
//     rng): the ring/line/complete/star/grid/random_connected wiring is
//     bit-compatible with the legacy per-node-vector construction (same
//     rng consumption, same final graph), plus the scale-era additions
//     torus / random_regular / power_law;
//   * `csr_topology::from_edges` — CSR-ification of any edge list
//     (counting sort, row sort, dedupe, self-loop removal).
// The conformance fuzzer asserts CSR rows are permutation-equal to a
// straightforward per-node-vector construction from the same edge list
// (the test-only oracle in check/topology_gen.hpp) on every seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

namespace cgp::distributed {

/// Topologies for the taxonomy's Topology dimension.  The last three are
/// the scale-era builders: `torus` (grid with wraparound, degree ~4,
/// diameter Theta(sqrt n)), `random_regular` (stub-pairing, degree <= 4,
/// diameter Theta(log n) — the small-diameter workhorse for large-n
/// differential runs), `power_law` (preferential attachment, m = 2:
/// hub-and-spoke degree distributions like real service meshes).
enum class topology {
  ring,
  complete,
  star,
  grid,
  random_connected,
  line,
  torus,
  random_regular,
  power_law
};

[[nodiscard]] const char* to_string(topology t);

/// All enum values, for generators that draw a random topology.
[[nodiscard]] std::span<const topology> all_topologies() noexcept;

/// Immutable compressed-sparse-row adjacency: `offsets_[v]..offsets_[v+1]`
/// indexes `edges_` for node v's sorted, deduplicated, self-loop-free
/// neighbor row.  Shared by every node of a run — there is exactly one
/// allocation pair per network regardless of node count.
class csr_topology {
 public:
  csr_topology() : offsets_(1, 0) {}

  /// Builds from an undirected edge list.  Duplicate edges (in either
  /// orientation) collapse to one; self-loops are removed; endpoints out
  /// of [0, nodes) throw std::invalid_argument.
  [[nodiscard]] static csr_topology from_edges(
      std::size_t nodes, std::span<const std::pair<int, int>> edge_list);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.size() - 1;
  }
  /// Undirected edge count (each edge stored twice in `edges()`).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size() / 2;
  }
  [[nodiscard]] std::size_t degree(std::size_t v) const noexcept {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }
  [[nodiscard]] std::span<const int> neighbors(std::size_t v) const noexcept {
    return {edges_.data() + offsets_[v], edges_.data() + offsets_[v + 1]};
  }
  /// O(log degree) adjacency test (rows are sorted).
  [[nodiscard]] bool is_adjacent(int a, int b) const noexcept;

  /// Raw arrays, for invariant checks and serialization.
  [[nodiscard]] const std::vector<std::uint64_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<int>& edges() const noexcept {
    return edges_;
  }

 private:
  std::vector<std::uint64_t> offsets_;  ///< n+1 entries, offsets_[0] == 0
  std::vector<int> edges_;              ///< sorted within each row
};

/// The deterministic edge list for `topo` on n nodes.  For the legacy
/// topologies this consumes `rng` exactly as the pre-CSR constructor did,
/// so a (seed, topology, n) triple builds the same graph — and leaves the
/// generator in the same state for the uid shuffle that follows.
[[nodiscard]] std::vector<std::pair<int, int>> build_edge_list(
    topology topo, std::size_t n, std::mt19937& rng);

/// Edge list -> CSR, the production path.
[[nodiscard]] csr_topology build_topology(topology topo, std::size_t n,
                                          std::mt19937& rng);

}  // namespace cgp::distributed
