// The STLlint symbolic executor (Section 3.1).
//
// The analyzer abstractly interprets MiniCpp functions against the
// concept-level container/iterator specifications in specs.hpp: containers
// are symbolic (kind, size interval, sortedness), iterators are symbolic
// positions with a validity lattice (valid < maybe-singular < singular),
// and mutating operations apply the specs' invalidation rules to every
// outstanding iterator.  Branches are joined; loops are analyzed to a
// bounded fixpoint.  Diagnostics are concept-level: singular-iterator
// dereference, range violations, multipass violations, unmet sortedness
// preconditions, and the "consider lower_bound" optimization advisory.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/symbol.hpp"
#include "stllint/ast.hpp"
#include "stllint/diagnostics.hpp"
#include "stllint/specs.hpp"

namespace cgp::stllint {

/// Join of two sortedness values.
[[nodiscard]] constexpr sorted3 join(sorted3 a, sorted3 b) {
  return a == b ? a : sorted3::unknown;
}

/// A symbol's rank: its position in name order among the program's
/// symbols.  Abstract states key by rank, so they iterate in name order.
using rank = core::symbol;
inline constexpr rank no_rank = core::no_symbol;

/// Abstract container.
struct container_state {
  const container_spec* kind = nullptr;
  interval size = interval::exact(0);
  sorted3 sorted = sorted3::yes;  ///< empty containers are sorted
  bool consumed = false;          ///< input_stream: traversal already taken

  friend bool operator==(const container_state&, const container_state&) =
      default;
};

/// Why an iterator is singular, as text only in messages: a cause (0 = none;
/// see the analyzer's cause table) and, for a mutation, the container.
struct singular_reason {
  std::uint8_t cause = 0;
  rank container = no_rank;

  [[nodiscard]] bool empty() const { return cause == 0; }
  friend bool operator==(const singular_reason&,
                         const singular_reason&) = default;
};

/// Abstract iterator.
struct iterator_state {
  enum class validity { valid, maybe_singular, singular };
  enum class position { from_begin, from_end, somewhere, none };

  validity valid = validity::singular;
  position pos = position::none;
  long offset = 0;          ///< begin+offset or end-offset when pos is known
  rank container = no_rank;  ///< owning container variable, if known
  singular_reason reason;
  /// Result of a search algorithm (find/lower_bound/...) that has not yet
  /// been compared against end(): dereferencing it may hit the not-found
  /// sentinel.  Cleared by any iterator comparison.
  const algorithm_spec* unverified_from = nullptr;

  [[nodiscard]] static iterator_state singular_state(singular_reason why) {
    return {.reason = why};
  }
  [[nodiscard]] static iterator_state at(position p, rank cont, long off = 0) {
    return {validity::valid, p, off, cont};
  }

  friend bool operator==(const iterator_state&, const iterator_state&) =
      default;
};

/// Abstract value of an expression / variable.
struct abstract_value {
  enum class kind { unknown, integer, boolean, iterator, container_ref };

  kind k = kind::unknown;
  interval num;                  ///< kind::integer
  std::optional<bool> truth;     ///< kind::boolean; nullopt = unknown
  iterator_state iter;           ///< kind::iterator
  rank container = no_rank;      ///< kind::container_ref

  [[nodiscard]] static abstract_value unknown_value() { return {}; }
  [[nodiscard]] static abstract_value integer(interval i) {
    return {.k = kind::integer, .num = i};
  }
  [[nodiscard]] static abstract_value boolean(std::optional<bool> b) {
    return {.k = kind::boolean, .truth = b};
  }
  [[nodiscard]] static abstract_value iterator(iterator_state s) {
    return {.k = kind::iterator, .iter = s};
  }

  friend bool operator==(const abstract_value&, const abstract_value&) =
      default;
};

/// Full abstract program state at a program point: flat maps keyed by symbol
/// rank, copied at branches and loop passes into recycled buffers.
struct abstract_state {
  core::symbol_map<container_state> containers;
  core::symbol_map<abstract_value> values;
  bool reachable = true;

  friend bool operator==(const abstract_state&, const abstract_state&) =
      default;
};

/// Join (least upper bound) of two states at a control-flow merge, written
/// into `out` (which must be neither input) as a linear merge.
void join(const abstract_state& a, const abstract_state& b,
          abstract_state& out);

/// Analyzer options.
struct options {
  /// Bounded fixpoint iterations per loop.  A nested loop whose enclosing
  /// loops' passes multiply past 1,024 gets one pass (and a note).
  int max_loop_passes = 3;
  bool advisories = true;    ///< emit optimization advice (Section 3.2)
  /// Most recent symbolic-execution steps attached to each diagnostic as
  /// its provenance trail (0 disables provenance collection; at most
  /// 16,384 are kept, so a trail's names fit its 16-bit name ids).
  int max_provenance_steps = 24;
};

/// The analyzer itself.
class analyzer {
 public:
  struct stats {
    std::size_t functions = 0;
    std::size_t statements = 0;
    std::size_t expressions = 0;
    std::size_t loop_passes = 0;
  };

  explicit analyzer(options opt = {},
                    const core::concept_registry& reg =
                        core::concept_registry::global())
      : opt_(opt), registry_(&reg) {}

  /// Analyzes every function in the program; diagnostics accumulate.
  /// `source` (the lines to echo in diagnostics) is read only during the
  /// call.
  void run(const ast_program& program, source_view source = {});

  [[nodiscard]] const diagnostics& diags() const noexcept { return diags_; }
  /// Moves the diagnostics out of a spent analyzer.
  [[nodiscard]] diagnostics take_diags() && noexcept {
    return std::move(diags_);
  }
  [[nodiscard]] const stats& statistics() const noexcept { return stats_; }

 private:
  friend class exec_impl;
  options opt_;
  const core::concept_registry* registry_;
  diagnostics diags_;
  stats stats_;
  /// Reported (line, column, message code, arguments), sorted: the key a
  /// report is deduplicated on before any text exists.  Cleared by `run`.
  std::vector<std::array<std::int64_t, 8>> reported_;
  source_view source_;  ///< during run
};

}  // namespace cgp::stllint
