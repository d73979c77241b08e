// One instrumented scope: the RAII timing hook every call site uses.
//
// A call site resolves a `scope_site` once (a call-site `static`, or a
// member built at rule or run set-up) naming the sinks it feeds: registry
// metrics `<metrics>.{calls,ops,duration_us}` plus a flight-recorder `span`
// entry; a trace span, recorded only under an active trace context; a
// profiler frame, recorded only while the profiler is on.  A `scope` reads
// telemetry::steady_now_ns() once at entry and once at exit, only when a
// sink is on, and hands that reading to every sink (a manual-clock
// profiler counts its own ticks instead).  With every sink off it is a few
// loads, no clock read and no allocation.  CGP_TELEMETRY_DISABLED compiles
// scopes down to no-ops.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/profile.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cgp::telemetry {

/// The sinks of a site, by name; an empty name leaves that sink out.
struct scope_names {
  std::string_view metrics{};  ///< registry metric prefix
  std::string_view trace{};    ///< trace span name
  std::string_view cat = "span";
  std::string_view frame{};  ///< profiler frame
};

/// A call site's sinks, resolved once.  Must outlive every scope over it.
class scope_site {
 public:
  scope_site() = default;
  explicit scope_site(const scope_names& names,
                      registry& reg = registry::global());

  /// True when a scope opened now would feed some sink.
  [[nodiscard]] bool on() const noexcept {
    return calls_ != nullptr ||
           (!trace_.empty() && trace::current_context().active()) ||
           (frame_ != profile::kNoFrame &&
            profile::profiler::global().enabled());
  }

 private:
  friend class scope;
  counter* calls_ = nullptr;
  counter* ops_ = nullptr;
  histogram* duration_us_ = nullptr;
  std::string metrics_, trace_, cat_;
  profile::frame_id frame_ = profile::kNoFrame;
};

class scope {
 public:
  explicit scope(const scope_site& site) : site_(&site) {
    if constexpr (kEnabled)
      if (site.on()) open(steady_now_ns());
  }
  /// Opens at the caller's steady_now_ns() reading (a caller timing the
  /// same stretch itself reads the clock once).
  scope(const scope_site& site, std::uint64_t now_ns) : site_(&site) {
    if constexpr (kEnabled)
      if (site.on()) open(now_ns);
  }
  ~scope() {
    if (open_) close(steady_now_ns());
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// Charges `n` operations to `<metrics>.ops`.
  void charge(std::uint64_t n) noexcept { ops_ += n; }
  [[nodiscard]] std::uint64_t charged() const noexcept { return ops_; }
  /// True when some sink records this scope.
  [[nodiscard]] bool recording() const noexcept { return open_; }

  /// Attaches a key/value to the trace span's end event (dropped when the
  /// span is not recording).
  void arg(std::string key, std::string value);
  /// The span's context when it records, else the thread's current one.
  [[nodiscard]] trace::span_context context() const noexcept;

  /// Closes at the caller's steady_now_ns() reading; the destructor then
  /// does nothing.
  void close(std::uint64_t now_ns);

 private:
  void open(std::uint64_t now_ns);

  const scope_site* site_;
  bool open_ = false;
  std::uint64_t t0_ = 0;
  std::uint64_t ops_ = 0;
  trace::detail::open_span span_{};
  std::vector<std::pair<std::string, std::string>> args_;
  profile::detail::probe_rec frame_{};
};

}  // namespace cgp::telemetry
