// Allocation behaviour of telemetry::scope over a resolved site: the
// instrumented hot paths (pool tasks, supersteps, rule fires) open one per
// call, so the scope itself must not allocate.  The operation-counted
// algorithm wrappers resolve their registry handles once, so a counted
// call allocates nothing either.
#include "alloc_hook.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sequences/instrumented.hpp"

#include "telemetry/profile.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"

namespace cgp::telemetry {
namespace {

constexpr int kScopes = 1000;

/// Allocations made by `fn()`.
template <class Fn>
std::size_t allocations(Fn fn) {
  const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
  fn();
  return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

TEST(ScopeAlloc, EverySinkOffAllocatesNothing) {
  profile::profiler::global().disable();
  ASSERT_FALSE(trace::current_context().active());
  const scope_site site({.trace = "scope_alloc_test.trace",
                         .cat = "test",
                         .frame = "scope_alloc_test.frame"});
  EXPECT_EQ(allocations([&site] {
              for (int i = 0; i < kScopes; ++i) {
                scope s(site);
                s.charge(1);
              }
            }),
            0u);
}

TEST(ScopeAlloc, ProfilerOnlyAllocatesNothingAfterWarmUp) {
  auto& prof = profile::profiler::global();
  prof.reset();
  prof.enable();
  const scope_site outer({.frame = "scope_alloc_test.outer"});
  const scope_site inner({.frame = "scope_alloc_test.inner"});
  const auto run = [&] {
    for (int i = 0; i < kScopes; ++i) {
      const scope a(outer);
      const scope b(inner);
    }
  };
  run();  // warm-up: the thread's state and both call-graph nodes
  EXPECT_TRUE(scope(outer).recording());
  EXPECT_EQ(allocations(run), 0u);
  prof.disable();
}

TEST(ScopeAlloc, RegistryPathAllocatesOnlyTheFlightRecorderEntry) {
  profile::profiler::global().disable();
  const char* const kName = "scope_alloc_test.registry_metrics";
  const scope_site site({.metrics = kName});
  auto& recorder = live::flight_recorder::global();
  const auto scopes = [&site] {
    for (int i = 0; i < kScopes; ++i) {
      scope s(site);
      s.charge(2);
    }
  };
  const auto notes = [&recorder, kName] {
    for (int i = 0; i < kScopes; ++i)
      recorder.note(live::flight_entry::kind::span, kName, 1.0);
  };
  // Warm-up: a full lap of the ring, so both runs overwrite entries.
  for (std::size_t i = 0; i < recorder.capacity(); ++i)
    recorder.note(live::flight_entry::kind::span, kName, 1.0);
  const std::size_t by_notes = allocations(notes);
  EXPECT_EQ(allocations(scopes), by_notes);
  EXPECT_EQ(registry::global().get_counter(std::string(kName) + ".calls")
                .value(),
            static_cast<std::uint64_t>(kScopes));
}

TEST(ScopeAlloc, RegistryPathAllocatesNothingOnceTheRingHasLapped) {
  profile::profiler::global().disable();
  const scope_site site({.metrics = "scope_alloc_test.lapped_metrics"});
  auto& recorder = live::flight_recorder::global();
  const auto scopes = [&site](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      scope s(site);
      s.charge(2);
    }
  };
  // Warm-up: a full lap of the ring with this scope's own entries, so
  // every slot's name buffer already fits the name.
  scopes(recorder.capacity());
  EXPECT_EQ(allocations([&scopes] { scopes(kScopes); }), 0u);
}

TEST(InstrumentedAlloc, LowerBoundCountAllocatesNothingAfterItsFirstCall) {
  std::vector<int> sorted(4096);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    sorted[i] = static_cast<int>(2 * i);
  const auto search = [&sorted](int value) {
    return sequences::instrumented::lower_bound_count(sorted.begin(),
                                                      sorted.end(), value);
  };
  (void)search(0);  // the first call resolves the metric handles
  std::uint64_t comparisons = 0;
  EXPECT_EQ(allocations([&] {
              for (int i = 0; i < kScopes; ++i) comparisons += search(i);
            }),
            0u);
  EXPECT_GT(comparisons, 0u);
}

}  // namespace
}  // namespace cgp::telemetry
