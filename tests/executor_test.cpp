// The Executor-concept redesign, end to end: pool_options validation, the
// work-stealing pool (move-only submit, nested fork-join, starvation
// rebalancing, destruction drains), the concurrent_map under insert and
// growth storms, the lint service's summary key, the concept-bounded
// algorithms over the archetype, and the migrated call sites (batch
// rewriting, the lint service cache, parallel graph algorithms) producing
// results identical to their serial twins.
//
// NOTE: multi-label suite (parallel;telemetry) — keep to TEST/TEST_F, no
// TEST_P (see tests/CMakeLists.txt on gtest_add_tests discovery).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "check/gen.hpp"
#include "check/minicpp_gen.hpp"
#include "core/mix64.hpp"
#include "graph/instrumented.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/concurrent_map.hpp"
#include "parallel/executor.hpp"
#include "parallel/options.hpp"
#include "parallel/task_group.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/batch.hpp"
#include "rewrite/engine.hpp"
#include "stllint/service.hpp"
#include "telemetry/telemetry.hpp"

namespace par = cgp::parallel;
namespace tel = cgp::telemetry;

namespace {

// The pool and the archetype model the concept (proof obligations also
// asserted next to each definition; repeated here so the test suite fails
// loudly if someone weakens a model).
static_assert(par::Executor<par::work_stealing_pool>);
static_assert(par::Executor<par::executor_archetype>);

std::uint64_t counter_value(const std::string& name) {
  return tel::registry::global().get_counter(name).value();
}

bool await_count(const std::atomic<std::size_t>& done, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load(std::memory_order_acquire) < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// ---------------------------------------------------------------------------
// pool_options
// ---------------------------------------------------------------------------

TEST(PoolOptions, DefaultsValidateAndResolve) {
  const par::pool_options opts;
  EXPECT_NO_THROW(opts.validate());
  EXPECT_GE(opts.resolved_workers(), 1u);
}

TEST(PoolOptions, InvalidKnobsThrowNamingTheKnob) {
  const auto message_of = [](const par::pool_options& o) {
    try {
      o.validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of({.workers = 5000}).find("workers"), std::string::npos);
}

TEST(PoolOptions, BothPoolsRejectInvalidOptionsAtConstruction) {
  EXPECT_THROW(par::work_stealing_pool({.workers = 5000}),
               std::invalid_argument);
  EXPECT_THROW(par::executor_archetype({.workers = 5000}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Submission surface
// ---------------------------------------------------------------------------

TEST(ExecutorSubmit, WorkStealingPoolAcceptsMoveOnlyCallables) {
  par::work_stealing_pool pool(2);
  auto payload = std::make_unique<int>(6);
  std::atomic<std::size_t> done{0};
  std::atomic<int> seen{0};
  pool.submit([p = std::move(payload), &done, &seen] {
    seen.store(*p * 7, std::memory_order_release);
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  ASSERT_TRUE(await_count(done, 1));
  EXPECT_EQ(seen.load(std::memory_order_acquire), 42);
}

// ---------------------------------------------------------------------------
// Work-stealing behavior
// ---------------------------------------------------------------------------

TEST(WorkStealing, RunChunksCompletesAllAndDrains) {
  const std::uint64_t submitted_before =
      counter_value("parallel.work_stealing.tasks_submitted");
  const std::uint64_t completed_before =
      counter_value("parallel.work_stealing.tasks_completed");
  std::atomic<std::size_t> ran{0};
  {
    par::work_stealing_pool pool({.workers = 3});
    pool.run_chunks(24, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  EXPECT_EQ(ran.load(), 24u);
  const std::uint64_t submitted =
      counter_value("parallel.work_stealing.tasks_submitted") -
      submitted_before;
  const std::uint64_t completed =
      counter_value("parallel.work_stealing.tasks_completed") -
      completed_before;
  EXPECT_EQ(submitted, 24u);
  EXPECT_EQ(completed, submitted);
}

// Planted starvation: one worker's deque is loaded with the whole workload
// (self-submission from a root task) while its peer sits idle.  The
// regression this pins down: the idle worker must STEAL its way into the
// work rather than park forever — completion alone isn't enough, the
// steals counter must move.
TEST(WorkStealing, PlantedStarvationIsRebalancedByStealing) {
  const std::uint64_t steals_before =
      counter_value("parallel.work_stealing.steals");
  constexpr std::size_t kChildren = 128;
  std::atomic<std::size_t> done{0};
  {
    par::work_stealing_pool pool({.workers = 2});
    std::atomic<std::size_t> seeded{0};
    pool.submit([&pool, &done, &seeded] {
      // Runs on a worker thread, so every child lands in THIS worker's
      // deque — the planted imbalance.
      for (std::size_t i = 0; i < kChildren; ++i)
        pool.submit([&done] {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          done.fetch_add(1, std::memory_order_acq_rel);
        });
      seeded.fetch_add(1, std::memory_order_acq_rel);
    });
    ASSERT_TRUE(await_count(seeded, 1));
    ASSERT_TRUE(await_count(done, kChildren));
  }
  EXPECT_EQ(done.load(), kChildren);
  EXPECT_GT(counter_value("parallel.work_stealing.steals"), steals_before);
}

TEST(WorkStealing, NestedParallelForCompletes) {
  par::work_stealing_pool pool({.workers = 3});
  std::atomic<std::size_t> cells{0};
  par::parallel_for(
      16,
      [&](std::size_t) {
        par::parallel_for(
            16, [&](std::size_t) { cells.fetch_add(1); }, pool,
            /*grain=*/1);
      },
      pool, /*grain=*/1);
  EXPECT_EQ(cells.load(), 256u);
}

TEST(WorkStealing, NestedTaskGroupForkJoinFromExternalThread) {
  par::work_stealing_pool pool({.workers = 2});
  std::atomic<std::size_t> leaves{0};
  par::task_group<par::work_stealing_pool> group(pool);
  for (int i = 0; i < 4; ++i)
    group.run([&pool, &leaves] {
      par::task_group<par::work_stealing_pool> inner(pool);
      for (int k = 0; k < 4; ++k) inner.run([&leaves] { leaves.fetch_add(1); });
      inner.wait();
    });
  group.wait();
  EXPECT_EQ(leaves.load(), 16u);
}

TEST(WorkStealing, TaskGroupPropagatesFirstException) {
  par::work_stealing_pool pool({.workers = 2});
  par::task_group<par::work_stealing_pool> group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Algorithms over the archetype (concept sufficiency proof, runtime half)
// ---------------------------------------------------------------------------

TEST(ExecutorAlgorithms, ArchetypeRunsAllFourAlgorithms) {
  par::executor_archetype inline_exec;
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);

  std::atomic<std::size_t> touched{0};
  par::parallel_for(
      v.size(), [&](std::size_t) { touched.fetch_add(1); }, inline_exec,
      /*grain=*/64);
  EXPECT_EQ(touched.load(), v.size());

  const double sum = par::parallel_reduce<std::plus<>>(
      v.begin(), v.end(), {}, inline_exec, /*grain=*/64);
  EXPECT_DOUBLE_EQ(sum, 1000.0 * 1001.0 / 2.0);

  std::vector<double> scanned(v.size());
  par::parallel_scan<std::plus<>>(v.begin(), v.end(), scanned.begin(), {},
                                  inline_exec, /*grain=*/64);
  EXPECT_DOUBLE_EQ(scanned.front(), 1.0);
  EXPECT_DOUBLE_EQ(scanned.back(), sum);

  std::vector<double> to_sort(v.rbegin(), v.rend());
  par::parallel_sort(to_sort.begin(), to_sort.end(), std::less<>{},
                     inline_exec, /*grain=*/64);
  EXPECT_TRUE(std::is_sorted(to_sort.begin(), to_sort.end()));
}

TEST(ExecutorAlgorithms, SameCallRunsOnBothPools) {
  // An explicit pool and the process-wide default pool.
  std::vector<std::int64_t> v(50'000);
  std::iota(v.begin(), v.end(), 0);
  const std::int64_t expected = 50'000LL * 49'999LL / 2LL;

  par::work_stealing_pool stealing(3);
  EXPECT_EQ(par::parallel_reduce<std::plus<>>(v.begin(), v.end(), {},
                                              stealing, /*grain=*/1024),
            expected);
  EXPECT_EQ(par::parallel_reduce<std::plus<>>(v.begin(), v.end()), expected);
}

// ---------------------------------------------------------------------------
// concurrent_map
// ---------------------------------------------------------------------------

TEST(ConcurrentMap, InsertStormEveryKeyWinsExactlyOnce) {
  constexpr std::size_t kKeys = 512;
  constexpr unsigned kWriters = 4;
  par::concurrent_map<int, int> map(kKeys);
  std::vector<std::atomic<int>> wins(kKeys);
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w)
    writers.emplace_back([&map, &wins, w] {
      for (std::size_t k = 0; k < kKeys; ++k) {
        const auto [it, inserted] =
            map.try_emplace(static_cast<int>(k), static_cast<int>(w));
        if (inserted) wins[k].fetch_add(1, std::memory_order_acq_rel);
        // Losers still see the winner's entry.
        EXPECT_EQ(it->first, static_cast<int>(k));
      }
    });
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(map.size(), kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(wins[k].load(), 1) << "key " << k;
    int* v = map.find(static_cast<int>(k));
    ASSERT_NE(v, nullptr);
    EXPECT_GE(*v, 0);
    EXPECT_LT(*v, static_cast<int>(kWriters));
  }
}

TEST(ConcurrentMap, PointersAreStableAcrossLaterInserts) {
  par::concurrent_map<std::string, int> map(4);  // tiny estimate: buckets grow
  const auto [first_it, inserted] = map.try_emplace("anchor", 1);
  ASSERT_TRUE(inserted);
  int* anchor = map.find("anchor");
  ASSERT_NE(anchor, nullptr);
  for (int i = 0; i < 2000; ++i)
    map.try_emplace("filler" + std::to_string(i), i);
  EXPECT_EQ(map.find("anchor"), anchor);  // same address after 2000 inserts
  EXPECT_EQ(*anchor, 1);
  EXPECT_EQ(map.size(), 2001u);
}

TEST(ConcurrentMap, InsertIteratorDerefSafeDuringSameShardInserts) {
  // The entry try_emplace returns is a pointer taken under the shard lock,
  // never an index into the shard's deque (whose block map a concurrent
  // emplace_back mutates), so it may be dereferenced while its shard keeps
  // growing.
  par::concurrent_map<int, int> map(8);
  const auto [held, inserted] = map.try_emplace(0, 42);
  ASSERT_TRUE(inserted);
  std::atomic<bool> done{false};
  std::thread writer([&map, &done] {
    // std::hash<int> is identity on mainstream stdlibs, so multiples of
    // the stripe count (64) all land in the held entry's shard.
    for (int i = 1; i <= 4000; ++i) map.try_emplace(i * 64, i);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    EXPECT_EQ(held->first, 0);
    EXPECT_EQ(held->second, 42);
  }
  writer.join();
  EXPECT_EQ(held->second, 42);
  EXPECT_EQ(map.size(), 4001u);
}

// A key that counts its comparisons, so a test can see how long the
// chains a lookup walks are.
std::atomic<std::size_t> g_key_compares{0};

struct counted_key {
  std::uint64_t v = 0;
  friend bool operator==(const counted_key& a, const counted_key& b) {
    g_key_compares.fetch_add(1, std::memory_order_relaxed);
    return a.v == b.v;
  }
};

struct counted_key_hash {
  std::size_t operator()(const counted_key& k) const {
    return static_cast<std::size_t>(cgp::core::mix64(k.v));
  }
};

// Buckets double per shard as the map grows, so a lookup compares O(1)
// keys on average however far the map outgrows its size estimate (with
// fixed buckets a map sized for 4 compares ~150 keys per lookup here).
TEST(ConcurrentMap, LookupsCompareConstantKeysAfterGrowth) {
  constexpr std::uint64_t kKeys = 100'000;
  par::concurrent_map<counted_key, std::uint64_t, counted_key_hash> map(4);
  for (std::uint64_t k = 0; k < kKeys; ++k)
    ASSERT_TRUE(map.try_emplace(counted_key{k}, k).second);
  g_key_compares.store(0);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t* v = map.find(counted_key{k});
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  for (std::uint64_t k = kKeys; k < 2 * kKeys; ++k)
    EXPECT_EQ(map.find(counted_key{k}), nullptr);
  const double per_lookup =
      static_cast<double>(g_key_compares.load()) / (2 * kKeys);
  EXPECT_LE(per_lookup, 2.0) << "chains grew with the map";
}

// Every key lands in shard 0: key k's hash is k * 64 with 64 stripes.
struct one_shard_hash {
  std::size_t operator()(int k) const {
    return static_cast<std::size_t>(k) * 64;
  }
};

// Inserters and finders race on one shard while its buckets double many
// times (8 -> 32768): every published key is found with its value, and
// pointers taken before a doubling still point at the same entry after.
TEST(ConcurrentMap, GrowthStormOnOneShardKeepsEveryKeyAndPointer) {
  constexpr int kInserters = 3;
  constexpr int kFinders = 2;
  constexpr int kPerInserter = 6000;
  par::concurrent_map<int, int, one_shard_hash> map(8);
  const int* anchor = &map.try_emplace(-1, -1).first->second;
  std::vector<std::vector<const int*>> held(kInserters);
  std::vector<std::atomic<int>> published(kInserters);
  std::atomic<int> inserters_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kInserters; ++w)
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerInserter; ++i) {
        const int key = w * kPerInserter + i;
        held[w].push_back(&map.try_emplace(key, key).first->second);
        published[w].store(i + 1, std::memory_order_release);
      }
      inserters_done.fetch_add(1, std::memory_order_release);
    });
  for (int f = 0; f < kFinders; ++f)
    threads.emplace_back([&, f] {
      std::uint64_t draw = static_cast<std::uint64_t>(f);
      while (inserters_done.load(std::memory_order_acquire) < kInserters) {
        EXPECT_EQ(map.find(-1), anchor);
        for (int w = 0; w < kInserters; ++w) {
          const int n = published[w].load(std::memory_order_acquire);
          if (n == 0) continue;
          const int key = w * kPerInserter +
                          static_cast<int>(cgp::core::splitmix64_next(draw) %
                                           static_cast<std::uint64_t>(n));
          const int* v = map.find(key);
          ASSERT_NE(v, nullptr) << "key " << key;
          EXPECT_EQ(*v, key);
        }
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(map.size(), std::size_t{kInserters * kPerInserter + 1});
  EXPECT_EQ(map.find(-1), anchor);
  for (int w = 0; w < kInserters; ++w)
    for (int i = 0; i < kPerInserter; ++i) {
      const int key = w * kPerInserter + i;
      EXPECT_EQ(map.find(key), held[w][i]) << "key " << key;
      EXPECT_EQ(*held[w][i], key);
    }
}

TEST(ConcurrentMap, ClearDropsEveryEntry) {
  par::concurrent_map<int, int> map(64);
  for (int i = 0; i < 100; ++i) map.try_emplace(i, i * i);
  EXPECT_EQ(map.size(), 100u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(5), nullptr);
}

// ---------------------------------------------------------------------------
// Migrated call sites
// ---------------------------------------------------------------------------

TEST(CallSites, SimplifyBatchMatchesSerialAndSharesMemo) {
  cgp::rewrite::simplifier s;
  s.add_default_concept_rules();
  using E = cgp::rewrite::expr;
  const E x = E::var("x", "int");
  std::vector<E> shapes = {
      E::binary_op("+", x, E::int_lit(0), "int"),
      E::binary_op("*", x, E::int_lit(1), "int"),
      E::binary_op("*", x, E::int_lit(0), "int"),
      E::unary_op("-", E::unary_op("-", x, "int"), "int"),
  };
  std::vector<E> batch;
  for (int rep = 0; rep < 32; ++rep)
    for (const E& e : shapes) batch.push_back(e);

  std::vector<std::string> serial;
  for (const E& e : batch) serial.push_back(s.simplify(e).to_string());

  par::work_stealing_pool pool({.workers = 3});
  const std::vector<E> out =
      cgp::rewrite::simplify_batch(s, batch, pool, /*grain=*/4);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].to_string(), serial[i]) << "batch index " << i;
}

TEST(CallSites, ColdMemoBatchRacesModelledAndUnmodelledShapes) {
  // Every worker starts on a cold memo, so the first visits of each shape
  // race to insert it: modelled shapes (int +, int *, unsigned |) and
  // shapes without a model (int -, double /, unsigned -), whose "no model"
  // entries are memoized as well.  Under TSan this is the race check.
  using E = cgp::rewrite::expr;
  const E x = E::var("x", "int");
  const E f = E::var("f", "double");
  const E u = E::var("u", "unsigned");
  const std::vector<E> shapes = {
      E::binary_op("+", x, E::int_lit(0), "int"),
      E::binary_op("-", x, E::int_lit(0), "int"),
      E::binary_op("*", E::binary_op("-", x, x, "int"), E::int_lit(1), "int"),
      E::binary_op("/", f, E::double_lit(2.0), "double"),
      E::binary_op("|", u, E::uint_lit(0), "unsigned"),
      E::binary_op("-", u, E::uint_lit(0), "unsigned"),
  };
  std::vector<E> batch;
  for (int rep = 0; rep < 64; ++rep)
    for (const E& e : shapes) batch.push_back(e);

  cgp::rewrite::simplifier serial_simp;
  serial_simp.add_default_concept_rules();
  std::vector<std::string> serial;
  for (const E& e : batch)
    serial.push_back(serial_simp.simplify(e).to_string());

  par::work_stealing_pool pool({.workers = 3});
  for (int round = 0; round < 4; ++round) {
    cgp::rewrite::simplifier s;  // cold memo every round
    s.add_default_concept_rules();
    const std::vector<E> out =
        cgp::rewrite::simplify_batch(s, batch, pool, /*grain=*/1);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i].to_string(), serial[i]) << "batch index " << i;
  }
}

TEST(CallSites, BatchAfterAModelIsDeclaredRewritesTheNewShape) {
  // The batch twin of Guard.RegistryExtensionEnablesRewrite: workers first
  // memoize that (quaternion, +) has no model, then a model is declared
  // quiescently, and the next batch must instantiate the shape again at
  // the registry's new generation.
  using E = cgp::rewrite::expr;
  cgp::core::concept_registry reg;
  cgp::core::register_builtin_concepts(reg);
  cgp::rewrite::simplifier s(reg);
  s.add_default_concept_rules();
  const E q = E::var("q", "quaternion");
  const E x = E::var("x", "int");
  std::vector<E> batch;
  for (int rep = 0; rep < 64; ++rep) {
    batch.push_back(E::binary_op(
        "+", q, cgp::rewrite::parse_literal("0", "quaternion").value()));
    batch.push_back(E::binary_op("+", x, E::int_lit(0), "int"));
  }

  par::work_stealing_pool pool({.workers = 3});
  const std::vector<E> before =
      cgp::rewrite::simplify_batch(s, batch, pool, /*grain=*/1);
  ASSERT_EQ(before.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); i += 2) {
    EXPECT_EQ(before[i], batch[i]) << "batch index " << i;
    EXPECT_EQ(before[i + 1], x) << "batch index " << i + 1;
  }

  reg.declare_model({"Monoid", {"quaternion", "+"}, {{"op", "+"}, {"e", "0"}}});
  const std::vector<E> after =
      cgp::rewrite::simplify_batch(s, batch, pool, /*grain=*/1);
  ASSERT_EQ(after.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); i += 2) {
    EXPECT_EQ(after[i], q) << "batch index " << i;
    EXPECT_EQ(after[i + 1], x) << "batch index " << i + 1;
  }
}

TEST(CallSites, LintServiceCachesByContent) {
  const std::uint64_t hits_before = counter_value("stllint.service.cache_hits");
  const std::uint64_t misses_before =
      counter_value("stllint.service.cache_misses");
  cgp::stllint::lint_service svc;
  const std::string src =
      "void f() { vector<int> v; sort(v.begin(), v.end()); }";
  const auto& first = svc.lint(src);
  const auto& second = svc.lint(src);
  EXPECT_EQ(&first, &second);  // stable cached summary, not a recompute
  EXPECT_EQ(counter_value("stllint.service.cache_misses") - misses_before,
            1u);
  EXPECT_EQ(counter_value("stllint.service.cache_hits") - hits_before, 1u);
  EXPECT_EQ(svc.cache_size(), 1u);
}

TEST(CallSites, LintBatchOverStealingPoolSharesCache) {
  cgp::stllint::lint_service svc;
  std::vector<std::string> sources;
  for (int i = 0; i < 24; ++i)
    sources.push_back(i % 2 == 0
                          ? "void even() { vector<int> v; v.push_back(1); }"
                          : "void odd() { list<int> l; l.push_back(2); }");
  par::work_stealing_pool pool({.workers = 3});
  const auto results = svc.lint_batch(sources, pool, /*grain=*/2);
  ASSERT_EQ(results.size(), sources.size());
  for (const auto* r : results) ASSERT_NE(r, nullptr);
  EXPECT_EQ(svc.cache_size(), 2u);  // two distinct sources
  // Equal sources share the identical cached summary object.
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(results[1], results[3]);
}

// ---------------------------------------------------------------------------
// The lint service's summary key
// ---------------------------------------------------------------------------

/// A generated MiniCpp unit of at least 3.4 KB, the benchmark corpus' size.
std::string unit_sized_source() {
  std::string src;
  for (std::uint64_t i = 0; src.size() < 3400; ++i)
    src += cgp::check::generate_minicpp(cgp::check::case_seed(0x5e11, i));
  return src;
}

// Every single-byte substitution, insertion and deletion of a unit gives a
// key of its own (deleting either byte of a run, or inserting a byte next
// to an equal one, gives the same text either way, so those count once).
TEST(SummaryKey, EverySingleByteEditChangesTheKey) {
  namespace sl = cgp::stllint;
  const sl::options opt;
  std::string src = unit_sized_source();
  std::unordered_set<std::uint64_t> keys{sl::summary_key(src, opt)};
  std::size_t edits = 1;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char was = src[i];
    for (const char flip : {'\x01', '\x80'}) {
      src[i] = static_cast<char>(was ^ flip);
      keys.insert(sl::summary_key(src, opt));
      ++edits;
    }
    src[i] = was;
    std::string edited;
    if (i == 0 || src[i - 1] != '\x02') {
      edited = src;
      edited.insert(i, 1, '\x02');
      keys.insert(sl::summary_key(edited, opt));
      ++edits;
    }
    if (i > 0 && src[i - 1] == was) continue;
    edited = src;
    edited.erase(i, 1);
    keys.insert(sl::summary_key(edited, opt));
    ++edits;
  }
  EXPECT_EQ(keys.size(), edits);
}

// Sources of zero bytes differ only in their length.
TEST(SummaryKey, ZeroByteSourcesOfEveryLengthDiffer) {
  std::unordered_set<std::uint64_t> keys;
  for (std::size_t n = 0; n <= 64; ++n)
    keys.insert(cgp::stllint::summary_key(std::string(n, '\0'), {}));
  EXPECT_EQ(keys.size(), 65u);
}

// The options enter the key with their full values: services whose
// options differ by 256 do not share keys.
TEST(SummaryKey, OptionsEnterWithTheirFullValues) {
  namespace sl = cgp::stllint;
  const std::string src = unit_sized_source();
  EXPECT_NE(sl::summary_key(src, {.max_loop_passes = 3}),
            sl::summary_key(src, {.max_loop_passes = 259}));
  EXPECT_NE(sl::summary_key(src, {.max_provenance_steps = 24}),
            sl::summary_key(src, {.max_provenance_steps = 280}));
  EXPECT_NE(sl::summary_key(src, {.advisories = true}),
            sl::summary_key(src, {.advisories = false}));
}

TEST(CallSites, ParallelBfsMatchesSerial) {
  cgp::graph::adjacency_list<> g(64);
  // Deterministic sparse digraph with varied degrees + unreachable tail.
  for (std::size_t v = 0; v < 60; ++v)
    for (std::size_t k = 1; k <= 1 + v % 4; ++k) g.add_edge(v, (v * 7 + k) % 60);
  const auto [serial, serial_ops] =
      cgp::graph::instrumented::bfs_distances(g, 0);
  par::work_stealing_pool pool({.workers = 3});
  const auto [parallel, par_ops] =
      cgp::graph::instrumented::bfs_distances_parallel(g, 0, pool,
                                                       /*grain=*/4);
  EXPECT_EQ(parallel, serial);
  EXPECT_GT(par_ops, 0u);
}

TEST(CallSites, ParallelPagerankMatchesSerialClosely) {
  cgp::graph::adjacency_list<> g(48);
  for (std::size_t v = 0; v < 48; ++v)
    for (std::size_t k = 1; k <= 1 + v % 3; ++k) g.add_edge(v, (v * 5 + k) % 48);
  const auto [serial, serial_ops] =
      cgp::graph::instrumented::pagerank(g, 20, 0.85);
  par::work_stealing_pool pool(3);
  const auto [parallel, par_ops] = cgp::graph::instrumented::pagerank_parallel(
      g, pool, 20, 0.85, /*grain=*/4);
  ASSERT_EQ(parallel.size(), serial.size());
  double serial_mass = 0.0, parallel_mass = 0.0;
  for (std::size_t v = 0; v < serial.size(); ++v) {
    EXPECT_NEAR(parallel[v], serial[v], 1e-12) << "vertex " << v;
    serial_mass += serial[v];
    parallel_mass += parallel[v];
  }
  EXPECT_NEAR(parallel_mass, serial_mass, 1e-9);  // still a distribution
  EXPECT_EQ(par_ops, serial_ops);  // identical per-sweep op accounting
}

}  // namespace
