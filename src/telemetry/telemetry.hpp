// Unified telemetry: process-wide counters, gauges, log-scale histograms,
// and RAII scoped spans, behind one thread-safe registry.
//
// Section 2's "performance concepts" attach complexity guarantees to
// concepts; Section 4 argues taxonomies should organize algorithms by
// *measured* message counts, rounds, and local computation.  This module is
// the measurement substrate both need: every subsystem reports through the
// same named-metric registry, so one exporter (text or JSON) shows the
// whole system, and the performance observatory (perf/fit.hpp) can fit the
// operation counts it attributes to a benchmark against the declared big-O
// bound, turning that bound into a runtime-checkable assertion.
//
// Cost discipline: counters are sharded per-thread-slot atomics (no
// contended cache line on the hot path), histograms bucket by bit-width
// (one shift, one relaxed fetch_add), and metric objects are looked up by
// name ONCE (the returned reference is stable for the registry's lifetime)
// so instrumented loops never touch the registry mutex.  Defining
// CGP_TELEMETRY_DISABLED compiles every mutation hook down to a no-op.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace cgp::telemetry {

#ifdef CGP_TELEMETRY_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

namespace detail {
/// Stable per-thread shard slot (hashed thread id, cached thread_local).
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

// ---------------------------------------------------------------------------
// counter: monotonic, sharded to keep concurrent increments uncontended
// ---------------------------------------------------------------------------

class counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t delta = 1) noexcept {
    if constexpr (kEnabled)
      shards_[detail::shard_index()].v.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  /// Pull-time aggregation across shards.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const cell& c : shards_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (cell& c : shards_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) cell {  // one cache line per shard: no false sharing
    std::atomic<std::uint64_t> v{0};
  };
  std::array<cell, kShards> shards_{};
};

// ---------------------------------------------------------------------------
// gauge: a settable signed level (queue depths, in-flight work)
// ---------------------------------------------------------------------------

class gauge {
 public:
  void set(std::int64_t v) noexcept {
    if constexpr (kEnabled) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta = 1) noexcept {
    if constexpr (kEnabled) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta = 1) noexcept { add(-delta); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// ---------------------------------------------------------------------------
// histogram: log2-scale buckets for latencies and sizes
// ---------------------------------------------------------------------------

/// Bucket i >= 1 holds values v with bit_width(v) == i, i.e. the interval
/// [2^(i-1), 2^i - 1]; bucket 0 holds exactly v == 0.  64 buckets cover the
/// full uint64 range with one `std::bit_width` and one relaxed fetch_add
/// per record.
class histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bucket 0 + bit widths 1..64

  void record(std::uint64_t v) noexcept {
    if constexpr (kEnabled) {
      buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(v, std::memory_order_relaxed);
      std::uint64_t seen = max_.load(std::memory_order_relaxed);
      while (v > seen &&
             !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
      }
    }
  }

  /// Bulk record: `n` observations of value `v` in one shot (the health
  /// observatory replays per-shard bucket deltas through this).  Same
  /// ordering guarantees as n calls to record().
  void record_n(std::uint64_t v, std::uint64_t n) noexcept {
    if constexpr (kEnabled) {
      if (n == 0) return;
      buckets_[bucket_of(v)].fetch_add(n, std::memory_order_relaxed);
      count_.fetch_add(n, std::memory_order_relaxed);
      sum_.fetch_add(v * n, std::memory_order_relaxed);
      std::uint64_t seen = max_.load(std::memory_order_relaxed);
      while (v > seen &&
             !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
      }
    }
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive [lo, hi] range of values landing in bucket i.
  [[nodiscard]] static constexpr std::pair<std::uint64_t, std::uint64_t>
  bucket_bounds(std::size_t i) {
    if (i == 0) return {0, 0};
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    const std::uint64_t hi =
        i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
    return {lo, hi};
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Interpolated percentile estimate (p in [0, 100]): walks the log2
  /// buckets to the one containing the target rank and interpolates
  /// linearly inside its [lo, hi] value range, so the estimation error is
  /// bounded by one bucket width.  Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    double target = (p / 100.0) * static_cast<double>(total);
    if (target < 1.0) target = 1.0;
    if (target > static_cast<double>(total))
      target = static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(bucket_count(i));
      if (c == 0.0) continue;
      if (cum + c >= target) {
        const auto [lo, hi] = bucket_bounds(i);
        const double frac = (target - cum) / c;
        return static_cast<double>(lo) +
               (static_cast<double>(hi) - static_cast<double>(lo)) * frac;
      }
      cum += c;
    }
    // Concurrent mutation can leave the bucket walk one short of count();
    // the max is the honest upper estimate then.
    return static_cast<double>(max());
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// registry: the process-wide name -> metric table
// ---------------------------------------------------------------------------

/// Metric names follow the `subsystem.object.event` convention documented
/// in README.md (e.g. "parallel.work_stealing.tasks_completed").  Lookup
/// takes a mutex; the returned reference is stable for the registry's
/// lifetime, so hot paths resolve each name once and increment lock-free.
class registry {
 public:
  registry() = default;
  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;

  [[nodiscard]] static registry& global();

  [[nodiscard]] counter& get_counter(const std::string& name);
  [[nodiscard]] gauge& get_gauge(const std::string& name);
  [[nodiscard]] histogram& get_histogram(const std::string& name);

  /// Snapshots (stable name order) for exporters and tests.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>>
  gauge_values() const;
  /// (name, count, sum) per histogram — the cheap totals the live sampler
  /// turns into per-period rate series without walking buckets.
  [[nodiscard]] std::vector<std::tuple<std::string, std::uint64_t,
                                       std::uint64_t>>
  histogram_totals() const;

  /// Full per-bucket snapshot of one histogram, as exporters that need
  /// real distributions (Prometheus `_bucket` series) consume it.
  struct histogram_view {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, histogram::kBuckets> buckets{};
  };
  /// Every registered histogram with its buckets, name-sorted.
  [[nodiscard]] std::vector<histogram_view> histogram_views() const;

  /// Sum of all counters whose name starts with `prefix` (test helper:
  /// "did subsystem X report anything?").
  [[nodiscard]] std::uint64_t counter_sum(const std::string& prefix) const;

  /// One line per metric, human-readable.
  [[nodiscard]] std::string export_text() const;
  /// One JSON object with "counters", "gauges", "histograms".
  [[nodiscard]] std::string export_json() const;

  /// Zeroes every metric (metric objects stay registered so cached
  /// references remain valid).  Test isolation only.
  void reset();

 private:
  mutable std::mutex mu_;
  // node-based maps: element addresses are stable across later insertions.
  std::map<std::string, std::unique_ptr<counter>> counters_;
  std::map<std::string, std::unique_ptr<gauge>> gauges_;
  std::map<std::string, std::unique_ptr<histogram>> histograms_;
};

// ---------------------------------------------------------------------------
// counter_snapshot: per-scope counter deltas
// ---------------------------------------------------------------------------

/// Captures every counter's value at construction so a scope's counter
/// *growth* can be read back later: `delta()` subtracts the captured
/// values (counters created after the snapshot count from zero).  The
/// performance observatory (src/perf) brackets each measured benchmark
/// with one of these, so every timing result carries the operation counts
/// — comparisons, messages, rewrites — that explain it.
class counter_snapshot {
 public:
  explicit counter_snapshot(registry& reg = registry::global());

  /// Counters that grew since construction, with their growth; name-sorted.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> delta()
      const;
  /// Growth summed over all counters whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t delta_sum(const std::string& prefix) const;

 private:
  registry* reg_;
  std::map<std::string, std::uint64_t> base_;
};

// ---------------------------------------------------------------------------
// span: RAII scoped measurement (nestable)
// ---------------------------------------------------------------------------

/// On destruction records, under its name:
///   <name>.calls        counter   (one per span)
///   <name>.duration_us  histogram (wall time, microseconds)
///   <name>.ops          counter   (user-charged operation count, if any)
/// Spans nest per thread; depth() reports the current nesting level and a
/// child's charges do NOT propagate to the parent (each span owns its own
/// operation count, mirroring how the network simulator charges local
/// steps per node).
class span {
 public:
  explicit span(std::string name, registry& reg = registry::global());
  ~span();

  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// Charges `n` operations to this span ("local computation" in Section
  /// 4's sense).
  void charge(std::uint64_t n) noexcept {
    if constexpr (kEnabled) ops_ += n;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t charged() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t elapsed_us() const noexcept;

  /// Nesting depth of the calling thread's innermost open span (0 = none).
  [[nodiscard]] static int depth() noexcept;
  /// Innermost open span of the calling thread, or nullptr.
  [[nodiscard]] static span* current() noexcept;

 private:
  registry* reg_;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t ops_ = 0;
  span* parent_ = nullptr;
};

}  // namespace cgp::telemetry
