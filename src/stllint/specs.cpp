#include "stllint/specs.hpp"

#include <map>

namespace cgp::stllint {

const container_spec& spec_for(std::string_view kind) {
  static const std::map<std::string, container_spec, std::less<>> specs = [] {
    std::map<std::string, container_spec, std::less<>> m;
    // vector: contiguous storage.  insert/erase shift elements; push_back
    // may reallocate.  The C++ standard invalidates at-and-after the point
    // of change (and everything on reallocation); like STLlint we use the
    // sound conservative approximation: all iterators die.
    // (`all` is every rule's default.)
    m["vector"] = {.kind = "vector",
                   .iterator_concept = "RandomAccessIterator"};
    // deque: any middle insert/erase invalidates everything; push_back
    // invalidates iterators (not references) — again: all.
    m["deque"] = {.kind = "deque", .iterator_concept = "RandomAccessIterator"};
    // list: node-based; only the erased iterator dies.
    m["list"] = {.kind = "list",
                 .iterator_concept = "BidirectionalIterator",
                 .on_insert = invalidation::none,
                 .on_erase = invalidation::argument,
                 .on_push_back = invalidation::none,
                 .on_clear = invalidation::all};
    // set / multiset: node-based and always sorted.
    m["set"] = {.kind = "set",
                .iterator_concept = "BidirectionalIterator",
                .on_insert = invalidation::none,
                .on_erase = invalidation::argument,
                .on_push_back = invalidation::none,
                .on_clear = invalidation::all,
                .has_push_back = false,
                .keeps_sorted = true};
    m["multiset"] = m["set"];
    m["multiset"].kind = "multiset";
    // input_stream: the semantic archetype of a single-pass sequence
    // (Section 3.1's most-restrictive InputIterator model).
    m["input_stream"] = {.kind = "input_stream",
                         .iterator_concept = "InputIterator",
                         .has_push_back = false,
                         .single_pass = true};
    return m;
  }();
  static const container_spec conservative{.kind = "unknown",
                                           .iterator_concept = "InputIterator"};
  auto it = specs.find(kind);
  return it == specs.end() ? conservative : it->second;
}

const std::vector<algorithm_spec>& all_algorithms() {
  using res = algorithm_spec::result;
  static const std::vector<algorithm_spec> algos = {
      {.name = "find",
       .requires_iterator = "InputIterator",
       .linear_search = true,
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "find_if",
       .requires_iterator = "InputIterator",
       .linear_search = true,
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "count",
       .requires_iterator = "InputIterator",
       .returns = res::value},
      {.name = "accumulate",
       .requires_iterator = "InputIterator",
       .returns = res::value},
      {.name = "for_each",
       .requires_iterator = "InputIterator",
       .returns = res::none},
      {.name = "max_element",
       .requires_iterator = "ForwardIterator",
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "min_element",
       .requires_iterator = "ForwardIterator",
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "adjacent_find",
       .requires_iterator = "ForwardIterator",
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "unique",
       .requires_iterator = "ForwardIterator",
       .returns = res::iterator_into_range},
      {.name = "lower_bound",
       .requires_iterator = "ForwardIterator",
       .requires_sorted = true,
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "upper_bound",
       .requires_iterator = "ForwardIterator",
       .requires_sorted = true,
       .may_return_end = true,
       .returns = res::iterator_into_range},
      {.name = "equal_range",
       .requires_iterator = "ForwardIterator",
       .requires_sorted = true,
       .returns = res::iterator_into_range},
      {.name = "binary_search",
       .requires_iterator = "ForwardIterator",
       .requires_sorted = true,
       .returns = res::boolean},
      {.name = "reverse",
       .requires_iterator = "BidirectionalIterator",
       .returns = res::none},
      {.name = "sort",
       .requires_iterator = "RandomAccessIterator",
       .establishes_sorted = true,
       .returns = res::none},
      {.name = "stable_sort",
       .requires_iterator = "RandomAccessIterator",
       .establishes_sorted = true,
       .returns = res::none},
      {.name = "nth_element",
       .requires_iterator = "RandomAccessIterator",
       .returns = res::none},
      {.name = "random_shuffle",
       .requires_iterator = "RandomAccessIterator",
       .returns = res::none},
      {.name = "merge",
       .requires_iterator = "InputIterator",
       .requires_sorted = true,
       .returns = res::iterator_into_range},
      {.name = "copy",
       .requires_iterator = "InputIterator",
       .returns = res::iterator_into_range},
  };
  return algos;
}

const algorithm_spec* algorithm_for(std::string_view name) {
  for (const algorithm_spec& a : all_algorithms())
    if (a.name == name) return &a;
  return nullptr;
}

}  // namespace cgp::stllint
