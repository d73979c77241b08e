// Flight recorder: a bounded, always-on ring of recent runtime events —
// finished metrics scopes, counter movements, verdicts, markers — that
// can be dumped on demand or from a fault path.  Beside it sits the one
// verdict path: `raise` counts, notes and traces every verdict, whether
// the stall watchdog or a health SLO rule caught it.
//
// The trace sink (trace.hpp) keeps a *truncated head*: once max_events is
// reached, new events are dropped, which is the honest policy for an
// exported causal tree but useless for post-mortems — by the time a run
// dies mid-superstep, the interesting events are the most RECENT ones.
// The flight recorder is the complementary policy: a fixed-capacity ring
// that OVERWRITES the oldest entry, so whatever happened just before a
// fault is always on hand.  DESIGN.md §10 covers how the live sampler and
// the verdict path feed it.
//
// Cost discipline: one mutex, one clock read and two string assignments
// per note; after the first lap the ring reuses its entries' buffers.
// Defining CGP_TELEMETRY_DISABLED compiles every note down to a no-op.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::telemetry::live {

/// telemetry::steady_now_ns() in milliseconds: the sampler, the watchdog
/// and the recorder share the one telemetry timeline, so one nanosecond
/// reading can stamp a heartbeat (`/ 1'000'000`) and time a round barrier.
[[nodiscard]] inline std::uint64_t steady_now_ms() noexcept {
  return steady_now_ns() / 1'000'000;
}

/// One recorded ring entry.
struct flight_entry {
  enum class kind : char {
    span = 's',      ///< a metrics scope finished (value = duration us)
    counter = 'c',   ///< a registry counter moved (value = sampled delta)
    verdict = 'v',   ///< a raised verdict (value = observed level)
    marker = 'm',    ///< free-form driver annotation
  };

  std::uint64_t t_ms = 0;
  /// Strictly increasing stamp (1-based, assigned under the ring lock).
  /// t_ms has millisecond granularity, so bursts of entries share a
  /// timestamp; seq totally orders them and lets a dump prove no entry
  /// was torn or reordered by concurrent writers.
  std::uint64_t seq = 0;
  kind k = kind::marker;
  std::string name;
  double value = 0.0;
  std::string detail;
};

[[nodiscard]] const char* to_string(flight_entry::kind k) noexcept;

/// The bounded overwrite ring.  All methods are thread-safe.
class flight_recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit flight_recorder(std::size_t capacity = kDefaultCapacity);
  flight_recorder(const flight_recorder&) = delete;
  flight_recorder& operator=(const flight_recorder&) = delete;

  [[nodiscard]] static flight_recorder& global();

  [[nodiscard]] std::size_t capacity() const;

  /// Appends one entry, overwriting the oldest when full.  The timestamp
  /// is stamped here, under the lock, so snapshot order == time order.
  /// Once the ring has lapped, a name and detail that fit the overwritten
  /// entry's buffers allocate nothing.
  void note(flight_entry::kind k, std::string_view name, double value = 0.0,
            std::string_view detail = {});

  /// Entries ever noted / entries that overwrote an older one.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t overwritten() const;

  /// Current contents, oldest first.
  [[nodiscard]] std::vector<flight_entry> snapshot() const;

  /// One JSON document (schema cgp.flight.v1) with capacity, totals, and
  /// the entries oldest-first — the post-mortem artifact.
  [[nodiscard]] std::string dump_json() const;

  /// Empties the ring and zeroes the totals (test isolation).
  void clear();

 private:
  /// The ring's contents, oldest first; the caller holds mu_.
  [[nodiscard]] std::vector<flight_entry> ordered_entries() const;

  mutable std::mutex mu_;
  std::vector<flight_entry> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;   ///< next write slot once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
};

/// Structural check of a dumped (and re-parsed) flight document: schema
/// tag, coherent totals, well-formed entries in non-decreasing time order.
struct flight_validation : validation {
  std::size_t entries = 0;
  std::size_t spans = 0;
  std::size_t counters = 0;
  std::size_t verdicts = 0;
  std::size_t markers = 0;
};

[[nodiscard]] flight_validation validate_flight_dump(const json_value& doc);

/// One verdict, whichever check caught it.  `source` and `rule` together
/// are the rule id: `watchdog.stall` for a busy participant silent past
/// its budget, `health.<rule name>` for a violated SLO rule.
struct verdict {
  std::string source;      ///< the checking layer: "watchdog" or "health"
  std::string rule;        ///< the rule within it: "stall", "shard_skew"
  std::string target;      ///< what it names: a participant, shard or gauge
  double value = 0.0;      ///< the observed level (silent ms, skew ratio)
  double threshold = 0.0;  ///< the level it crossed (budget ms, ceiling)
  std::uint64_t t_ms = 0;  ///< when the check caught it
};

/// The only emission path for a verdict: adds 1 to the registry counters
/// `telemetry.verdicts` and `telemetry.verdicts.<source>.<rule>`, notes a
/// `verdict` flight entry named `<source>.<rule>`, and records the root
/// trace instant `<source>.<rule>: <target>`.  Callers keep their own
/// verdict log and episode state; this is only the side effects.
void raise(const verdict& v);

}  // namespace cgp::telemetry::live
