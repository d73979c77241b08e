// Live time-series sampler: continuous observation of the telemetry
// registry while a run is still serving load.
//
// Every exporter so far (registry::export_json, trace export, perf
// reports) speaks only after a run finishes.  The sampler closes the gap
// the ROADMAP's long-running items (STLlint-as-a-service, the autotuner)
// need: a dedicated background thread snapshots the registry at a
// configurable period and appends timestamped points to fixed-capacity
// per-metric ring buffers — counters and histogram totals as per-period
// DELTAS (rates), gauges as levels — so memory stays bounded no matter
// how long the process lives.  Storage is one name-sorted map under one
// mutex: there is a single sampling thread, and scrapes are rare.
//
// Two consumers, two formats:
//   * export_prometheus(): latest values in Prometheus text exposition
//     (scrape endpoint material; `cgp_`-prefixed, sanitized names);
//   * export_json(): the full retained series as a `cgp.live.v1`
//     document, built through json_value/dump_json so output is
//     deterministic (sorted series, shortest number round-trip) — under a
//     manual clock two identical runs export byte-identical documents,
//     which the determinism test gates on.
//
// Each tick also drives the stall watchdog (watchdog.hpp) and feeds the
// flight recorder (recorder.hpp), so liveness verdicts land on the same
// timeline as the series.  A manual mode (sample_at) takes the thread and
// the real clock out of the loop entirely for deterministic tests.
// Defining CGP_TELEMETRY_DISABLED compiles sampling down to no-ops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/watchdog.hpp"

namespace cgp::telemetry::live {

/// One retained observation.
struct series_point {
  std::uint64_t t_ms = 0;
  double value = 0.0;
};

/// One metric's retained ring, as returned by sampler::series().
struct series_view {
  std::string name;
  std::string kind;  ///< counter_delta | gauge | hist_count_delta | hist_sum_delta
  std::uint64_t total_points = 0;  ///< ever appended (>= points.size())
  std::vector<series_point> points;  ///< oldest first
};

struct sample_options {
  std::uint64_t period_ms = 100;  ///< background sampling period
  std::size_t capacity = 256;     ///< per-metric ring capacity
  bool watch = true;              ///< drive the stall watchdog each tick
  std::size_t miss_threshold = 2; ///< busy + silent > threshold*period = stall
};

class sampler {
 public:
  explicit sampler(sample_options opts = {},
                   registry& reg = registry::global());
  ~sampler();  ///< stops the background thread if running
  sampler(const sampler&) = delete;
  sampler& operator=(const sampler&) = delete;

  /// Spawns the background sampling thread (no-op if already running).
  void start();
  /// Stops and joins it (no-op if not running).  start() may be called
  /// again afterwards — the retained series persist across restarts.
  void stop();
  [[nodiscard]] bool running() const;

  /// Manual mode: takes exactly one sample stamped `now_ms`.  Used with an
  /// injected clock by the determinism tests and callable alongside the
  /// background thread (ticks serialize on the storage lock).
  void sample_at(std::uint64_t now_ms);

  /// Ticks taken so far (background + manual).
  [[nodiscard]] std::uint64_t samples_taken() const;

  [[nodiscard]] const sample_options& options() const noexcept {
    return opts_;
  }

  /// All retained series, name-sorted, points oldest-first.
  [[nodiscard]] std::vector<series_view> series() const;

  /// Latest values in Prometheus text exposition format: counters and
  /// histogram totals as cumulative `cgp_*` counters, gauges as gauges.
  /// Samples are grouped by sanitized exposition name (one `# TYPE` line
  /// per family, `untyped` when colliding members disagree on kind) and
  /// each carries the original registry name as an escaped
  /// `{metric="..."}` label.
  [[nodiscard]] std::string export_prometheus() const;

  /// Full retained series as a `cgp.live.v1` JSON document (schema,
  /// period, tick count, series[], and — when the watchdog is driven —
  /// its verdicts).  Deterministic: built via dump_json over sorted keys.
  [[nodiscard]] std::string export_json() const;

  /// Drops retained points and delta baselines (test isolation).
  void clear();

 private:
  struct series_state {
    char kind = 'c';  // c=counter g=gauge n=hist-count s=hist-sum
    std::uint64_t last_raw = 0;  // previous absolute value (delta kinds)
    double last_value = 0.0;     // latest exported value
    std::uint64_t total_points = 0;
    std::vector<series_point> ring;
    std::size_t head = 0;  // oldest slot once the ring is full
  };

  void run_loop();
  /// Appends one point to `name`'s ring (caller holds `mu_`) and returns
  /// the series' previous absolute value.
  std::uint64_t append(const std::string& name, char kind, std::uint64_t t_ms,
                       std::uint64_t raw, std::int64_t gauge_level);

  sample_options opts_;
  registry* reg_;
  mutable std::mutex mu_;
  std::map<std::string, series_state> metrics_;  ///< name-sorted

  mutable std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::thread thread_;
  bool stop_requested_ = false;
  bool running_ = false;

  std::atomic<std::uint64_t> samples_{0};
};

/// Structural check of a dumped (re-parsed) cgp.live.v1 document: schema
/// tag, numeric period/samples, well-formed series with known kinds and
/// non-decreasing point times, per-series point count within capacity.
struct live_validation : validation {
  std::size_t series = 0;
  std::size_t points = 0;
  std::size_t counters = 0;    ///< counter_delta series
  std::size_t gauges = 0;      ///< gauge series
  std::size_t histograms = 0;  ///< hist_count_delta + hist_sum_delta series
  std::size_t stalls = 0;      ///< watchdog verdicts carried in the doc
};

[[nodiscard]] live_validation validate_live_export(const json_value& doc);

/// Sanitizes a registry metric name into a Prometheus metric name:
/// `cgp_` prefix, every non-[a-zA-Z0-9_] byte replaced with '_'.
[[nodiscard]] std::string prometheus_name(const std::string& metric);

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
[[nodiscard]] std::string prometheus_escape_label(const std::string& value);

}  // namespace cgp::telemetry::live
