// Self-tests for the property-based conformance checker (src/check): the
// generator/shrinker/runner triple must itself be deterministic, minimal,
// and loud about vacuous suites before the conformance suites built on it
// can be trusted.
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/gen.hpp"
#include "check/gtest_support.hpp"
#include "check/property.hpp"
#include "check/shrink.hpp"
#include "telemetry/telemetry.hpp"

namespace check = cgp::check;

CGP_REGISTER_SEED_BANNER();

TEST(RandomSource, SameSeedSameStream) {
  check::random_source a(123456789), b(123456789);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

// Golden values: the stream every seeded generator (and the end-to-end
// benchmark's lint corpus) draws from must never drift.  A change here
// silently changes every CGP_CHECK_SEED replay and every generated input.
TEST(RandomSource, StreamIsPinnedForAFixedSeed) {
  check::random_source rs(42);
  EXPECT_EQ(rs.bits(), 0xbdd732262feb6e95ull);
  EXPECT_EQ(rs.bits(), 0x28efe333b266f103ull);
  EXPECT_EQ(rs.bits(), 0x47526757130f9f52ull);
  EXPECT_EQ(rs.bits(), 0x581ce1ff0e4ae394ull);
  EXPECT_EQ(rs.bits(), 0x09bc585a244823f2ull);
  EXPECT_EQ(check::case_seed(42, 7), 0xaa3b469b8177f717ull);
}

TEST(RandomSource, DifferentSeedsDiverge) {
  check::random_source a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) differing += a.bits() != b.bits();
  EXPECT_GT(differing, 15);
}

TEST(RandomSource, IntInStaysInRange) {
  check::random_source rs(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rs.int_in(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RandomSource, CaseSeedsAreIndependentStreams) {
  const std::uint64_t s1 = check::case_seed(42, 0);
  const std::uint64_t s2 = check::case_seed(42, 1);
  const std::uint64_t s3 = check::case_seed(43, 0);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s1, s3);
  EXPECT_EQ(s1, check::case_seed(42, 0));
}

TEST(Arbitrary, SignedGenerationIsBiasedSmall) {
  check::random_source rs(99);
  int small = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto v = check::arbitrary<std::int64_t>::generate(rs);
    if (v >= -4 && v <= 4) ++small;
  }
  // ~55% by construction; leave slack for the tail distributions.
  EXPECT_GT(small, 400);
}

TEST(Arbitrary, DoublesAreExactDyadics) {
  check::random_source rs(5);
  for (int i = 0; i < 200; ++i) {
    const double v = check::arbitrary<double>::generate(rs);
    EXPECT_EQ(v * 4.0, std::round(v * 4.0));
    EXPECT_LE(std::fabs(v), 64.0);
  }
}

TEST(Shrinker, IntegerCandidatesAreSimpler) {
  const auto cs = check::shrinker<std::int64_t>::candidates(-100);
  ASSERT_FALSE(cs.empty());
  EXPECT_EQ(cs.front(), 0);
  for (const auto c : cs) EXPECT_LE(std::abs(c), 100);
  EXPECT_TRUE(check::shrinker<std::int64_t>::candidates(0).empty());
}

TEST(Shrinker, StringCandidatesAreSimpler) {
  const auto cs = check::shrinker<std::string>::candidates("dcba");
  ASSERT_FALSE(cs.empty());
  EXPECT_EQ(cs.front(), "");
  EXPECT_TRUE(check::shrinker<std::string>::candidates("").empty());
}

TEST(Shrinker, VectorShrinksLengthAndElements) {
  const std::vector<std::int64_t> v = {7, 9};
  const auto cs = check::shrinker<std::vector<std::int64_t>>::candidates(v);
  ASSERT_FALSE(cs.empty());
  EXPECT_TRUE(cs.front().empty());
  bool has_element_shrink = false;
  for (const auto& c : cs)
    if (c.size() == 2 && (c[0] == 0 || c[1] == 0)) has_element_shrink = true;
  EXPECT_TRUE(has_element_shrink);
}

TEST(ForAll, PassingPropertyRunsAllCases) {
  const auto res = check::for_all<std::int64_t, std::int64_t>(
      "self.addition_cancels",
      [](std::int64_t a, std::int64_t b) { return (a + b) - b == a; });
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.falsified);
  EXPECT_EQ(res.cases_run, check::config{}.cases);
  EXPECT_TRUE(res.message.empty());
}

TEST(ForAll, FailingPropertyShrinksToBoundary) {
  // Fails exactly for x >= 10: the minimal counterexample is 10 itself.
  const auto res = check::for_all<std::int64_t>(
      "self.below_ten", [](std::int64_t x) { return x < 10; });
  ASSERT_TRUE(res.falsified) << "generator never produced a value >= 10";
  ASSERT_EQ(res.counterexample.size(), 1u);
  EXPECT_EQ(res.counterexample[0], "10");
  EXPECT_NE(res.message.find("CGP_CHECK_SEED="), std::string::npos);
  EXPECT_NE(res.message.find("counterexample: (10)"), std::string::npos);
}

TEST(ForAll, FailureReplaysDeterministicallyFromReportedSeed) {
  const auto pred = [](std::int64_t x, std::int64_t y) {
    return x + y < 200;  // falsifiable, needs both components
  };
  const auto first = check::for_all<std::int64_t, std::int64_t>(
      "self.replay", pred);
  ASSERT_TRUE(first.falsified);
  check::config replay_cfg;
  replay_cfg.seed = first.seed;  // what the CGP_CHECK_SEED line reports
  const auto second = check::for_all<std::int64_t, std::int64_t>(
      "self.replay", pred, replay_cfg);
  ASSERT_TRUE(second.falsified);
  EXPECT_EQ(first.failing_case, second.failing_case);
  EXPECT_EQ(first.counterexample, second.counterexample);
  EXPECT_EQ(first.message, second.message);
}

TEST(ForAll, DistinctSeedsExploreDistinctCases) {
  std::vector<std::string> first_values;
  for (std::uint64_t seed : {1ull, 2ull}) {
    check::config cfg;
    cfg.seed = seed;
    cfg.cases = 1;
    const auto res = check::for_all<std::int64_t>(
        "self.seed_sensitivity", [](std::int64_t) { return false; }, cfg);
    ASSERT_TRUE(res.falsified);
    ASSERT_TRUE(res.shrink_steps > 0 || !res.counterexample.empty());
    first_values.push_back(res.repro());
  }
  EXPECT_NE(first_values[0], first_values[1]);
}

TEST(ForAll, DiscardsDoNotCountAsCases) {
  check::config cfg;
  cfg.cases = 50;
  const auto res = check::for_all<std::int64_t>(
      "self.even_only",
      [](std::int64_t x) {
        if (x % 2 != 0) throw check::discard_case{};
        return (x * x) % 4 == 0;
      },
      cfg);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.cases_run, 50u);
  EXPECT_GT(res.discarded, 0u);
}

TEST(ForAll, AllDiscardedIsAVacuousSuiteFailure) {
  const auto res = check::for_all<std::int64_t>(
      "self.vacuous",
      [](std::int64_t) -> bool { throw check::discard_case{}; });
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.falsified);  // not a counterexample — a coverage failure
  EXPECT_EQ(res.cases_run, 0u);
  EXPECT_NE(res.message.find("0 cases"), std::string::npos);
  EXPECT_NE(res.message.find("CGP_CHECK_SEED="), std::string::npos);
}

TEST(ForAll, ThrowingPredicateIsACounterexample) {
  const auto res = check::for_all<std::int64_t>(
      "self.throws", [](std::int64_t x) -> bool {
        if (x > 3) throw std::runtime_error("domain violation");
        return true;
      });
  ASSERT_TRUE(res.falsified);
  EXPECT_NE(res.message.find("raised: domain violation"), std::string::npos);
  ASSERT_EQ(res.counterexample.size(), 1u);
  EXPECT_EQ(res.counterexample[0], "4");  // minimal throwing input
}

TEST(ForAll, ResultHelpersAggregate) {
  std::vector<check::result> rs;
  rs.push_back(check::for_all<std::int64_t>(
      "self.agg_pass", [](std::int64_t) { return true; }));
  EXPECT_TRUE(check::all_ok(rs));
  EXPECT_EQ(check::total_cases(rs), check::config{}.cases);
  EXPECT_TRUE(check::failure_messages(rs).empty());
  rs.push_back(check::for_all<std::int64_t>(
      "self.agg_fail", [](std::int64_t) { return false; }));
  EXPECT_FALSE(check::all_ok(rs));
  EXPECT_FALSE(check::failure_messages(rs).empty());
}

TEST(ForAll, RecordsTelemetryCounters) {
  auto& reg = cgp::telemetry::registry::global();
  const auto before = reg.get_counter("check.properties.executed").value();
  const auto cases_before =
      reg.get_counter("check.properties.cases_executed").value();
  (void)check::for_all<std::int64_t>("self.telemetry",
                                     [](std::int64_t) { return true; });
  EXPECT_EQ(reg.get_counter("check.properties.executed").value(), before + 1);
  EXPECT_EQ(reg.get_counter("check.properties.cases_executed").value(),
            cases_before + check::config{}.cases);
}

TEST(Seed, BannerNamesTheEnvironmentVariable) {
  EXPECT_EQ(check::seed_banner().rfind("CGP_CHECK_SEED=", 0), 0u);
  EXPECT_EQ(check::default_seed(), check::config{}.seed);
}
