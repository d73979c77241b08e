// The Transport concept: the driver-facing boundary of the distributed
// runtime (Section 4 methodology — a multi-type concept carving the
// library at its orthogonal dimensions, in the spirit of Siek &
// Lumsdaine's "language for generic programming in the large").
//
// A Transport is anything that can host a distributed algorithm run:
// construct from `net_options`, spawn one process per node, expose the
// wiring (node_count / neighbors_of / uid_of / edge_count), accept the
// unified fault surface (crash, corrupt; drop/duplicate/delay/churn ride
// in via net_options::faults), run to quiescence, and report decisions
// and measured statistics.  Algorithm drivers constrained on this concept
// — `run_ring_election`, the benchmarks, the backend-parity tests — run
// unchanged on any backend: the deterministic `sim_transport`, the
// executor-fan-out `parallel_transport`, the per-phase-thread
// `inproc_transport`, or the archetype below.
//
// `transport_archetype` is the syntactic archetype (core/archetypes.hpp
// style): the MINIMAL model of the concept, with do-nothing semantics.
// Instantiating a driver with it proves the driver requires no syntax
// beyond the concept — the static_asserts at the bottom of this header
// and the instantiation in tests/transport_test.cpp are the proof
// obligations.
#pragma once

#include <concepts>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "distributed/network.hpp"

namespace cgp::distributed {

// clang-format off
template <class T>
concept Transport =
    std::constructible_from<T, const net_options&> &&
    requires(T t, const T ct, const process_factory& factory,
             std::vector<long> uids, int node, std::size_t rounds,
             std::function<void(message&)> hook, const std::string& key) {
      // Algorithm installation and execution.
      { t.spawn(factory) };
      { t.set_uids(std::move(uids)) };
      { t.run(rounds) } -> std::same_as<run_stats>;
      // The unified fault surface (message-level faults arrive via
      // net_options::faults at construction).
      { t.crash(node, rounds) };
      { t.corrupt(node, std::move(hook)) };
      // Wiring introspection.
      { ct.node_count() } -> std::convertible_to<std::size_t>;
      { ct.edge_count() } -> std::convertible_to<std::size_t>;
      // `neighbor_span` (std::span<const int>): CSR backends return a view
      // into the shared edges array; `const std::vector<int>&` converts,
      // so pre-CSR models (the archetype below) conform unchanged — the
      // concept's OPERATIONS did not move when the representation did.
      { ct.neighbors_of(node) } -> std::convertible_to<neighbor_span>;
      { ct.uid_of(node) } -> std::convertible_to<long>;
      { ct.options() } -> std::convertible_to<const net_options&>;
      // Outcomes.
      { ct.decision(node, key) } -> std::same_as<std::optional<long>>;
      { ct.deciders(key) } -> std::same_as<std::vector<int>>;
    };
// clang-format on

/// Minimal syntactic model of Transport.  Every operation is the weakest
/// legal implementation (no nodes beyond the requested count, empty runs,
/// no decisions); drivers instantiated with it must compile — and may run
/// — without reaching beyond the concept.
class transport_archetype {
 public:
  explicit transport_archetype(const net_options& opts)
      : opts_(opts), neighbors_(opts.nodes) {
    stats_.local_steps_per_node.assign(opts.nodes, 0);
    stats_.messages_sent_per_node.assign(opts.nodes, 0);
    stats_.messages_received_per_node.assign(opts.nodes, 0);
  }

  void spawn(const process_factory& factory) { (void)factory; }
  void set_uids(std::vector<long> uids) { (void)uids; }
  run_stats run(std::size_t max_rounds = 100000) {
    (void)max_rounds;
    return stats_;
  }
  void crash(int node, std::size_t at_round = 0) { (void)node, (void)at_round; }
  void corrupt(int node, std::function<void(message&)> hook) {
    (void)node, (void)hook;
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return opts_.nodes; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return 0; }
  [[nodiscard]] const std::vector<int>& neighbors_of(int id) const {
    return neighbors_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] long uid_of(int id) const { return static_cast<long>(id) + 1; }
  [[nodiscard]] const net_options& options() const noexcept { return opts_; }
  [[nodiscard]] std::optional<long> decision(int node,
                                             const std::string& key) const {
    (void)node, (void)key;
    return std::nullopt;
  }
  [[nodiscard]] std::vector<int> deciders(const std::string& key) const {
    (void)key;
    return {};
  }

 private:
  net_options opts_;
  std::vector<std::vector<int>> neighbors_;
  run_stats stats_;
};

// Proof obligations: the archetype models the concept, and the real
// backends satisfy it structurally (parallel_transport asserts its own
// conformance in parallel_transport.cpp to keep this header light).
static_assert(Transport<transport_archetype>);
static_assert(Transport<sim_transport>);

}  // namespace cgp::distributed
