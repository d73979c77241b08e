// Tests for the data-parallel library: the work-stealing pool's submit and
// run_chunks surface, Monoid-constrained reduce/scan, and parallel sort.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

#include "parallel/algorithms.hpp"

namespace cgp::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  work_stealing_pool pool(4);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RunChunksBlocksUntilComplete) {
  work_stealing_pool pool(3);
  std::vector<int> hits(17, 0);
  pool.run_chunks(17, [&](std::size_t c) { hits[c] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 17);
}

TEST(ThreadPool, RunChunksPropagatesExceptions) {
  work_stealing_pool pool(2);
  EXPECT_THROW(pool.run_chunks(8,
                               [&](std::size_t c) {
                                 if (c == 5)
                                   throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  work_stealing_pool pool(4);
  std::vector<std::atomic<int>> hits(50000);
  parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTransform, MatchesSerial) {
  work_stealing_pool pool(4);
  std::vector<int> in(30000);
  std::iota(in.begin(), in.end(), 0);
  std::vector<long> out(in.size());
  parallel_transform(in.begin(), in.end(), out.begin(),
                     [](int x) { return static_cast<long>(x) * x; }, pool);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], static_cast<long>(i) * static_cast<long>(i));
}

TEST(ParallelReduce, MatchesSerialSum) {
  work_stealing_pool pool(4);
  std::vector<int> v(100001);
  std::iota(v.begin(), v.end(), -50000);
  const int expected = std::accumulate(v.begin(), v.end(), 0);
  EXPECT_EQ((parallel_reduce<std::plus<>>(v.begin(), v.end(), {}, pool)),
            expected);
}

TEST(ParallelReduce, NonCommutativeMonoidIsDeterministic) {
  // String concatenation is associative but NOT commutative: chunk results
  // combined in index order must reproduce the serial concatenation.
  work_stealing_pool pool(4);
  std::vector<std::string> v;
  for (int i = 0; i < 5000; ++i) v.push_back(std::to_string(i % 10));
  std::string expected;
  for (const auto& s : v) expected += s;
  EXPECT_EQ((parallel_reduce<std::plus<>>(v.begin(), v.end(), {}, pool)),
            expected);
}

TEST(ParallelReduce, BitwiseMonoids) {
  work_stealing_pool pool(4);
  std::vector<unsigned> v(40000, 0xFFFFFFFFu);
  v[12345] = 0x0000FF00u;
  EXPECT_EQ((parallel_reduce<std::bit_and<>>(v.begin(), v.end(), {}, pool)),
            0x0000FF00u);
}

// Compile-time rejection: subtraction is not a Monoid.
template <class Op, class I>
concept preduce_callable =
    requires(I f, I l) { parallel_reduce<Op>(f, l); };
static_assert(
    preduce_callable<std::plus<>, std::vector<int>::const_iterator>);
static_assert(
    !preduce_callable<std::minus<>, std::vector<int>::const_iterator>);

class ScanProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanProperty, InclusiveScanMatchesSerialPrefixSums) {
  work_stealing_pool pool(4);
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> d(-9, 9);
  std::vector<int> v(GetParam());
  for (int& x : v) x = d(rng);
  std::vector<int> expected(v.size());
  std::partial_sum(v.begin(), v.end(), expected.begin());
  std::vector<int> out(v.size());
  parallel_inclusive_scan<std::plus<>>(v.begin(), v.end(), out.begin(), {},
                                       pool);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanProperty,
                         ::testing::Values(0u, 1u, 2u, 1023u, 1024u, 1025u,
                                           20000u, 100001u));

TEST(ParallelSort, MatchesSerialSort) {
  work_stealing_pool pool(4);
  std::mt19937 rng(123);
  std::uniform_int_distribution<int> d(-100000, 100000);
  std::vector<int> v(200000);
  for (int& x : v) x = d(rng);
  std::vector<int> expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(v.begin(), v.end(), std::less<>{}, pool);
  EXPECT_EQ(v, expected);
}

TEST(ParallelSort, SmallAndEdgeSizes) {
  work_stealing_pool pool(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4095u, 4096u, 4097u, 10000u}) {
    std::mt19937 rng(n);
    std::uniform_int_distribution<int> d(0, 50);
    std::vector<int> v(n);
    for (int& x : v) x = d(rng);
    std::vector<int> expected = v;
    std::sort(expected.begin(), expected.end());
    parallel_sort(v.begin(), v.end(), std::less<>{}, pool);
    EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST(ParallelSort, CustomComparator) {
  work_stealing_pool pool(2);
  std::vector<int> v(50000);
  std::iota(v.begin(), v.end(), 0);
  parallel_sort(v.begin(), v.end(), std::greater<>{}, pool);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GE(v[i - 1], v[i]);
}

// ---------------------------------------------------------------------------
// telemetry wiring
// ---------------------------------------------------------------------------

TEST(PoolTelemetry, SubmittedEqualsCompletedAndQueueDrains) {
  auto& reg = cgp::telemetry::registry::global();
  const auto submitted_before =
      reg.get_counter("parallel.work_stealing.tasks_submitted").value();
  const auto completed_before =
      reg.get_counter("parallel.work_stealing.tasks_completed").value();
  {
    work_stealing_pool pool(3);
    std::atomic<int> hits{0};
    pool.run_chunks(24, [&hits](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 24);
  }  // pool destruction joins workers: every submitted task has completed
  const auto submitted =
      reg.get_counter("parallel.work_stealing.tasks_submitted").value() -
      submitted_before;
  const auto completed =
      reg.get_counter("parallel.work_stealing.tasks_completed").value() -
      completed_before;
  EXPECT_EQ(submitted, 24u);
  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(reg.get_gauge("parallel.work_stealing.queue_depth").value(), 0);
  // Per-task latency histogram saw every task of this (and any earlier) run.
  EXPECT_GE(reg.get_histogram("parallel.work_stealing.task_us").count(),
            completed);
}

}  // namespace
}  // namespace cgp::parallel
