// Seeded deterministic value generation for the property-based conformance
// checker (DESIGN.md §8).
//
// The paper's Section 2 semantic constraints ("axioms") and Section 3.3
// proof checking treat concept requirements as checkable artifacts.  This
// module supplies the randomized half of that promise: every generated
// value is a pure function of a 64-bit seed, so a failing property is
// reproduced exactly by re-running with the `CGP_CHECK_SEED` the failure
// printed — no hidden entropy, no platform-dependent distributions.
//
// Generation is biased toward SMALL and BOUNDARY values (0, 1, -1,
// identity-adjacent elements): algebraic law violations almost always have
// tiny witnesses, and small inputs shrink to readable counterexamples.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/mix64.hpp"

namespace cgp::check {

/// Deterministic 64-bit stream (core::splitmix64_next).  Unlike <random>
/// engines + distributions, every draw is fully specified by core/mix64.hpp
/// and this header, so a seed reproduces the same values on every platform
/// and standard library.
class random_source {
 public:
  explicit random_source(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] std::uint64_t bits() noexcept {
    return core::splitmix64_next(state_);
  }

  /// Uniform in [0, n); n == 0 yields 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    return n == 0 ? 0 : bits() % n;
  }

  /// Uniform in the inclusive range [lo, hi].
  [[nodiscard]] std::int64_t int_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability ~`percent`/100.
  [[nodiscard]] bool chance(unsigned percent) noexcept {
    return below(100) < percent;
  }

 private:
  std::uint64_t state_;
};

/// Derives the seed for case `index` of a run seeded with `seed` — each
/// case gets an independent stream, so shrinking can replay one case
/// without replaying the whole run.
[[nodiscard]] inline std::uint64_t case_seed(std::uint64_t seed,
                                             std::uint64_t index) noexcept {
  random_source mix(seed ^ (0x2545f4914f6cdd1dull * (index + 1)));
  return mix.bits();
}

// ---------------------------------------------------------------------------
// arbitrary<T>: the generation customization point
// ---------------------------------------------------------------------------

/// Specialize `arbitrary<T>` with a static `T generate(random_source&)` to
/// make T usable with `for_all`.  Shrinking is the separate customization
/// point `shrinker<T>` in shrink.hpp.
template <class T, class = void>
struct arbitrary;

namespace detail {

/// Small-biased signed magnitude: ~55% in [-4, 4], ~30% in [-128, 128],
/// the rest across 32 bits.  Boundary-ish values shrink fast and catch
/// identity/inverse law violations with tiny witnesses.
[[nodiscard]] inline std::int64_t small_biased_int(random_source& rs) {
  const std::uint64_t roll = rs.below(100);
  if (roll < 55) return rs.int_in(-4, 4);
  if (roll < 85) return rs.int_in(-128, 128);
  return rs.int_in(-2147483647, 2147483647);
}

}  // namespace detail

template <class T>
struct arbitrary<T, std::enable_if_t<std::is_integral_v<T> &&
                                     std::is_signed_v<T>>> {
  static T generate(random_source& rs) {
    return static_cast<T>(detail::small_biased_int(rs));
  }
};

template <class T>
struct arbitrary<T, std::enable_if_t<std::is_integral_v<T> &&
                                     std::is_unsigned_v<T> &&
                                     !std::is_same_v<T, bool>>> {
  static T generate(random_source& rs) {
    const std::uint64_t roll = rs.below(100);
    if (roll < 55) return static_cast<T>(rs.below(9));
    if (roll < 85) return static_cast<T>(rs.below(257));
    // Stay within 32 bits: the registry's built-in "unsigned" models (e.g.
    // the 0xFFFFFFFF bit_and identity) are declared for 32-bit words.
    return static_cast<T>(rs.below(0x100000000ull));
  }
};

template <>
struct arbitrary<bool> {
  static bool generate(random_source& rs) { return rs.chance(50); }
};

/// Doubles are generated as dyadic rationals n/4 with |n| <= 256, so sums
/// and triple products evaluate EXACTLY in IEEE double — associativity and
/// distributivity can be checked with == instead of a tolerance.  (Laws
/// involving reciprocals still need the approximate-equality knob in
/// laws.hpp.)
template <>
struct arbitrary<double> {
  static double generate(random_source& rs) {
    return static_cast<double>(rs.int_in(-256, 256)) / 4.0;
  }
};

template <class F>
struct arbitrary<std::complex<F>> {
  static std::complex<F> generate(random_source& rs) {
    return {static_cast<F>(rs.int_in(-16, 16)) / F{4},
            static_cast<F>(rs.int_in(-16, 16)) / F{4}};
  }
};

template <>
struct arbitrary<std::string> {
  static std::string generate(random_source& rs) {
    const std::size_t n = rs.below(9);
    std::string s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      s.push_back(static_cast<char>('a' + rs.below(4)));
    return s;
  }
};

template <class T>
struct arbitrary<std::vector<T>> {
  static std::vector<T> generate(random_source& rs) {
    const std::size_t n = rs.below(7);
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(arbitrary<T>::generate(rs));
    return v;
  }
};

}  // namespace cgp::check
