// Operation-counted entry points for the sequence algorithms.
//
// The core algorithms in sort.hpp/algorithms.hpp stay constexpr and
// uninstrumented — performance-concept measurement wraps them from the
// outside by counting comparator invocations, the currency in which
// Section 2's ComplexityO guarantees for comparison sorts are stated.
// Each wrapper reports to the telemetry registry under
// `sequences.<algorithm>.*` and returns the observed comparison count so
// callers (tests, benches) can feed it straight into the empirical
// complexity fit, perf::fit_against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sequences/sort.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::sequences::instrumented {

/// Comparator wrapper that counts invocations into a caller-owned tally.
/// The tally lives outside the registry so counting costs one increment —
/// the registry sees one aggregate add() per algorithm call.
template <class Cmp>
struct counting_compare {
  Cmp* cmp;
  std::uint64_t* tally;

  template <class A, class B>
  constexpr bool operator()(const A& a, const B& b) const {
    ++*tally;
    return (*cmp)(a, b);
  }
};

namespace detail {

/// One algorithm's `sequences.<algorithm>.*` handles, resolved once (a
/// function-local static at each wrapper), so a counted call costs four
/// relaxed adds and no name building or registry lookup.
struct report_site {
  telemetry::counter& calls;
  telemetry::counter& comparisons;
  telemetry::counter& elements;
  telemetry::histogram& comparisons_per_call;

  explicit report_site(const std::string& base)
      : calls(telemetry::registry::global().get_counter(base + ".calls")),
        comparisons(
            telemetry::registry::global().get_counter(base + ".comparisons")),
        elements(telemetry::registry::global().get_counter(base + ".elements")),
        comparisons_per_call(telemetry::registry::global().get_histogram(
            base + ".comparisons_per_call")) {}

  void operator()(std::uint64_t n_comparisons, std::uint64_t n) const {
    calls.add();
    comparisons.add(n_comparisons);
    elements.add(n);
    comparisons_per_call.record(n_comparisons);
  }
};

}  // namespace detail

/// Concept-dispatched sort (introsort / forward mergesort), counted.
/// Returns the number of comparisons performed.
template <std::forward_iterator I,
          std::indirect_strict_weak_order<I> Cmp = std::less<>>
  requires std::permutable<I>
std::uint64_t sort(I first, I last, Cmp cmp = {}) {
  static const detail::report_site kReport("sequences.sort");
  std::uint64_t comparisons = 0;
  counting_compare<Cmp> counted{&cmp, &comparisons};
  cgp::sequences::sort(first, last, counted);
  kReport(comparisons, static_cast<std::uint64_t>(
                           cgp::sequences::distance(first, last)));
  return comparisons;
}

/// Stable (buffered mergesort) sort, counted.
template <std::random_access_iterator I,
          std::indirect_strict_weak_order<I> Cmp = std::less<>>
std::uint64_t stable_sort(I first, I last, Cmp cmp = {}) {
  static const detail::report_site kReport("sequences.stable_sort");
  std::uint64_t comparisons = 0;
  counting_compare<Cmp> counted{&cmp, &comparisons};
  cgp::sequences::stable_sort(first, last, counted);
  kReport(comparisons, static_cast<std::uint64_t>(last - first));
  return comparisons;
}

/// nth_element (quickselect), counted.
template <std::random_access_iterator I,
          std::indirect_strict_weak_order<I> Cmp = std::less<>>
std::uint64_t nth_element(I first, I nth, I last, Cmp cmp = {}) {
  static const detail::report_site kReport("sequences.nth_element");
  std::uint64_t comparisons = 0;
  counting_compare<Cmp> counted{&cmp, &comparisons};
  cgp::sequences::nth_element(first, nth, last, counted);
  kReport(comparisons, static_cast<std::uint64_t>(last - first));
  return comparisons;
}

/// lower_bound, counted (the O(log n) performance concept of binary
/// search on random-access ranges).
template <std::forward_iterator I, class T, class Cmp = std::less<>>
std::uint64_t lower_bound_count(I first, I last, const T& value,
                                Cmp cmp = {}) {
  static const detail::report_site kReport("sequences.lower_bound");
  std::uint64_t comparisons = 0;
  counting_compare<Cmp> counted{&cmp, &comparisons};
  (void)cgp::sequences::lower_bound(first, last, value, counted);
  kReport(comparisons, static_cast<std::uint64_t>(
                           cgp::sequences::distance(first, last)));
  return comparisons;
}

}  // namespace cgp::sequences::instrumented
