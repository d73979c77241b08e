// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public functions; the library's telemetry is not involved, so a
// change there cannot change what the benchmark measures.  Each thread
// appends to its own buffer; `collect` is called once the traced work has
// finished, and all spans are written out when the run ends.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e::spans {

inline constexpr std::uint64_t kNoItem =
    std::numeric_limits<std::uint64_t>::max();
inline constexpr std::int64_t kNoParent = -1;

struct record {
  std::int64_t id = 0;
  std::int64_t parent = kNoParent;
  std::uint32_t name = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t item = kNoItem;
};

/// Interns a span name (call once per name, outside hot loops).
[[nodiscard]] std::uint32_t name_id(std::string_view name);
[[nodiscard]] std::string name_of(std::uint32_t id);

/// Turns recording on or off for every thread.  Scopes opened while off
/// record nothing.
void enable(bool on);

/// RAII span.  The parent is the calling thread's innermost open span,
/// unless `parent` names one explicitly (work handed to pool workers
/// parents under the span of the thread that handed it out).
class scope {
 public:
  explicit scope(std::uint32_t name, std::uint64_t item = kNoItem,
                 std::int64_t parent = kNoParent);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// This span's id (kNoParent when recording is off).
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  std::int64_t id_ = kNoParent;
};

/// Every recorded span of every thread.  Call only when no scope is open
/// and the threads that recorded have been joined or synchronized with.
[[nodiscard]] std::vector<record> collect();

/// Writes spans as JSON: a names table plus one array per span,
/// `[id, parent, name, thread, start_ns, end_ns, item]` (item -1 = none).
/// Returns false when the file cannot be written.
bool write_json(const std::string& path, const std::vector<record>& all);

/// Accounting of the spans under one or more root spans (one per pass).
/// Capacity is `threads` x the roots' summed wall time.  Self time is a
/// span's duration minus its children's; idle is measured separately, per
/// thread, as the part of each root window that no top-level span covers.
/// Self plus idle must add up to the capacity.
struct split {
  std::map<std::string, double> self_s;        ///< per span name
  std::map<std::string, std::uint64_t> count;  ///< spans per name
  double wall_s = 0;         ///< summed duration of the roots
  double capacity_s = 0;     ///< threads x wall
  double busy_s = 0;         ///< summed self time under the roots
  double idle_s = 0;         ///< summed uncovered time, per thread
  double closure_error = 0;  ///< |busy + idle - capacity| / capacity
  std::string problem;       ///< first structural violation, if any
};

/// Splits the time under `roots` over `threads` working threads (pool
/// workers, clients, or the main thread itself).
[[nodiscard]] split account(const std::vector<record>& all,
                            const std::vector<std::int64_t>& roots,
                            unsigned threads);

}  // namespace e2e::spans
