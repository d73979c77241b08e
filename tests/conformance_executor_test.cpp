// Conformance suite for the Executor concept: the SAME semantic property
// bundle (check/executor_laws.hpp — exactly-once under concurrent writers,
// nested fork-join termination, destruction drains) runs against every
// shipped model: the work_stealing_pool (at width 3 and at width 1) and
// the run-inline archetype.  This is the
// transport-parity pattern applied to schedulers: one contract, N models,
// randomized configurations, CGP_CHECK_SEED reproduction on failure.
//
// NOTE: multi-label suite (conformance;parallel) — TEST/TEST_F only, no
// TEST_P (see tests/CMakeLists.txt on gtest_add_tests discovery).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "check/executor_laws.hpp"
#include "check/gtest_support.hpp"
#include "check/property.hpp"
#include "parallel/executor.hpp"
#include "parallel/options.hpp"
#include "parallel/work_stealing_pool.hpp"

namespace check = cgp::check;
namespace par = cgp::parallel;

CGP_REGISTER_SEED_BANNER();

namespace {

void expect_all_ok(const std::vector<check::result>& rs) {
  ASSERT_FALSE(rs.empty());
  for (const auto& r : rs) {
    EXPECT_TRUE(r.ok) << r.name << "\n" << r.message;
    EXPECT_GT(r.cases_run, 0u) << r.name << " executed no cases";
  }
}

// Concurrency properties spin up a pool + producer threads per sampled
// case; a dozen cases per property keeps the suite fast while still
// varying writer counts, fan-outs, and drain sizes.
check::config quick_config() {
  check::config cfg;
  cfg.cases = 12;
  return cfg;
}

TEST(ExecutorConformance, WorkStealingPoolSatisfiesExecutorLaws) {
  expect_all_ok(check::executor_properties(
      "work_stealing_pool",
      [] {
        return std::make_unique<par::work_stealing_pool>(
            par::pool_options{.workers = 3});
      },
      quick_config()));
}

TEST(ExecutorConformance, SingleWorkerStealingPoolSatisfiesExecutorLaws) {
  // Width 1 is the degenerate schedule where helping is the ONLY way
  // nested fork-join can finish — the deadlock regression lives here.
  expect_all_ok(check::executor_properties(
      "work_stealing_pool[w1]",
      [] {
        return std::make_unique<par::work_stealing_pool>(
            par::pool_options{.workers = 1});
      },
      quick_config()));
}

TEST(ExecutorConformance, ArchetypeSatisfiesExecutorLaws) {
  expect_all_ok(check::executor_properties(
      "executor_archetype",
      [] { return std::make_unique<par::executor_archetype>(); },
      quick_config()));
}

}  // namespace
