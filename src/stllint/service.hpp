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
#include <string>
#include <string_view>
#include <vector>

#include "parallel/algorithms.hpp"
#include "parallel/concurrent_map.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::stllint {

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
    const std::uint64_t key = cache_key(source);
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
  // FNV-1a over the source text, seeded with the option bits: two services
  // with different options never share keys even if callers copy cache
  // contents around.  64-bit content hashing is the standard build-cache
  // tradeoff (collisions are ~2^-32 at a million entries).
  [[nodiscard]] std::uint64_t cache_key(std::string_view source) const {
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](unsigned char c) {
      h ^= c;
      h *= 1099511628211ull;
    };
    mix(static_cast<unsigned char>(opt_.max_loop_passes));
    mix(opt_.advisories ? 1 : 0);
    mix(static_cast<unsigned char>(opt_.max_provenance_steps));
    for (const char c : source) mix(static_cast<unsigned char>(c));
    return h;
  }

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
