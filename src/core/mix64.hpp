// splitmix64 (Vigna): the library's one 64-bit hash and seeded stream.
// `mix64` is the stateless finalizer the fault plan and the health
// reservoir hash their keys with (order-independent draws);
// `splitmix64_next` is the stream behind check::random_source and the
// bootstrap resampler.  Fully specified here, so a seed reproduces the
// same numbers on every platform and standard library.
#pragma once

#include <cstdint>

namespace cgp::core {

/// The stream increment: 2^64 / phi, rounded to odd.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 finalizer of `x + kGoldenGamma`.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Next draw of the splitmix64 stream whose state is `state`.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(
    std::uint64_t& state) noexcept {
  const std::uint64_t draw = mix64(state);
  state += kGoldenGamma;
  return draw;
}

// The published reference stream: seed 0 starts with 0xe220a8397b1dcdaf.
static_assert([] {
  std::uint64_t state = 0;
  return splitmix64_next(state) == 0xe220a8397b1dcdafull;
}());

}  // namespace cgp::core
