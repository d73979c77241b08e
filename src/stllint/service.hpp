// STLlint as a long-lived service: lint many translation units, possibly
// from many threads, with a content-addressed summary cache.
//
// Editors and build daemons re-lint the same headers over and over; the
// analysis is pure in (source, options), so its result can be memoized by
// content hash.  The cache is the parallel layer's insert-only
// `concurrent_map` — the second shipped consumer beside the simplifier's
// instantiation memo: lookups contend only within one of 64 stripes, hits
// return a pointer to a never-moving cached summary, and a batch fan-out
// over any Executor shares one cache with no extra coordination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/mix64.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/concurrent_map.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::stllint {

/// Content key of linting `source` under `opt`: the source read 8 bytes at
/// a time into 4 independent `core::mix64` lanes, seeded with its length
/// and the full option values, so one source linted under different
/// options gets different keys.  Keys are 64-bit, process-local and never
/// verified against the source: the standard build-cache trade-off
/// (collisions are ~2^-25 at a million entries).  A change to one 8-byte
/// word always changes the key, because each step is a bijection of the
/// lane.
[[nodiscard]] inline std::uint64_t summary_key(std::string_view source,
                                               const options& opt) noexcept {
  using core::mix64;
  std::uint64_t lane[4] = {
      mix64(source.size()),
      mix64(static_cast<std::uint64_t>(opt.max_loop_passes)),
      mix64(static_cast<std::uint64_t>(opt.max_provenance_steps)),
      mix64(opt.advisories ? 1 : 0)};
  const auto absorb = [&lane](const char* block) {  // 32 bytes
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t word = 0;
      std::memcpy(&word, block + 8 * l, 8);
      lane[l] = mix64(lane[l] ^ word);
    }
  };
  std::size_t at = 0;
  for (; source.size() - at >= 32; at += 32) absorb(source.data() + at);
  char tail[32] = {};  // the last 0-31 bytes, zero-padded
  source.copy(tail, sizeof tail, at);
  absorb(tail);
  return mix64(mix64(mix64(lane[0] ^ lane[1]) ^ lane[2]) ^ lane[3]);
}

/// Memoizing lint front end.  Results are cached by (source, options)
/// content hash; `lint` is safe to call concurrently from any number of
/// threads (the cache is insert-only — racing linters of the same source
/// both analyze, one result wins, both callers see a valid summary).
class lint_service {
 public:
  lint_service() = default;
  explicit lint_service(const options& opt) : opt_(opt) {}

  /// Lints `source`, serving repeats from the summary cache.  The returned
  /// reference is stable for the service's lifetime (insert-only map).
  const lint_result& lint(std::string_view source) {
    const std::uint64_t key = summary_key(source, opt_);
    if (const lint_result* hit = cache_.find(key)) {
      hits_().add();
      return *hit;
    }
    misses_().add();
    lint_result fresh = lint_source(source, opt_);
    return cache_.try_emplace(key, std::move(fresh)).first->second;
  }

  /// Lints a batch over any Executor, sharing this service's cache.
  /// Returns pointers into the cache, in input order (stable forever).
  template <parallel::Executor E = parallel::work_stealing_pool>
  std::vector<const lint_result*> lint_batch(
      const std::vector<std::string>& sources,
      E& exec = parallel::work_stealing_pool::default_pool(),
      std::size_t grain = 4) {
    std::vector<const lint_result*> out(sources.size(), nullptr);
    parallel::parallel_for(
        sources.size(), [&](std::size_t i) { out[i] = &lint(sources[i]); },
        exec, grain);
    return out;
  }

  /// Distinct summaries currently cached.
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

 private:
  static telemetry::counter& hits_() {
    static telemetry::counter& c = telemetry::registry::global().get_counter(
        "stllint.service.cache_hits");
    return c;
  }
  static telemetry::counter& misses_() {
    static telemetry::counter& c = telemetry::registry::global().get_counter(
        "stllint.service.cache_misses");
    return c;
  }

  options opt_{};
  parallel::concurrent_map<std::uint64_t, lint_result> cache_{256};
};

}  // namespace cgp::stllint
