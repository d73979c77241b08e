// Library-supplied semantic specifications (Section 3.1).
//
// "Central to the design of STLlint is the notion of abstraction via concept
// and data-type specifications" — the analyzer never looks at container
// implementations; it interprets programs against these concept-level specs:
// which iterator concept a container's iterators model (looked up against
// the core concept registry's refinement lattice), and how each mutating
// operation invalidates outstanding iterators.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cgp::stllint {

/// How a mutating container operation affects outstanding iterators.
enum class invalidation {
  none,         ///< no iterator is invalidated (e.g. list::push_back)
  argument,     ///< only the iterator passed to the call (e.g. list::erase)
  all,          ///< every iterator into the container (e.g. vector::erase,
                ///< vector::push_back — reallocation)
};

/// Concept-level specification of a container kind.
struct container_spec {
  std::string kind;              ///< "vector", "list", ...
  std::string iterator_concept;  ///< registry concept its iterators model
  invalidation on_insert = invalidation::all;
  invalidation on_erase = invalidation::all;
  invalidation on_push_back = invalidation::all;
  invalidation on_clear = invalidation::all;
  bool has_push_back = true;
  bool keeps_sorted = false;   ///< set/multiset: always sorted
  bool single_pass = false;    ///< input_stream: one traversal only
};

/// Returns the spec for a container kind; unknown kinds get a maximally
/// conservative spec.
[[nodiscard]] const container_spec& spec_for(std::string_view kind);

/// What a generic algorithm requires and guarantees — the machine-readable
/// core of an algorithm concept (Section 3.1's entry/exit handlers).
struct algorithm_spec {
  std::string name;
  std::size_t range_args = 2;        ///< leading (first, last) iterator args
  std::string requires_iterator;     ///< concept name in the registry
  bool requires_sorted = false;      ///< entry handler: precondition
  bool establishes_sorted = false;   ///< exit handler: postcondition
  bool linear_search = false;        ///< triggers the sorted-range advisory
  bool may_return_end = false;  ///< the result may be the not-found end()
  enum class result { none, iterator_into_range, boolean, value } returns =
      result::none;
};

/// Looks up a known STL-style algorithm; nullptr for unknown functions
/// (which the analyzer treats as opaque and pure).
[[nodiscard]] const algorithm_spec* algorithm_for(std::string_view name);

/// All registered algorithm specs (used by the taxonomy and docs).
[[nodiscard]] const std::vector<algorithm_spec>& all_algorithms();

}  // namespace cgp::stllint
