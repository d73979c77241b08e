// The shared environment block every report binary stamps its output
// with (bench/perf_report and every `bench/obs_export` subcommand).
//
// A measured number is only comparable to another measured number when
// both carry the conditions they were measured under, so the observatory
// refuses to emit an anonymous report: compiler, build flags, core
// count, OS, and a caller-supplied timestamp ride along in one
// "environment" JSON object with a single definition here — previously
// each binary re-derived (or skipped) this ad hoc.
#pragma once

#include <string>

#include "telemetry/export.hpp"

namespace cgp::perf {

struct environment {
  std::string compiler;       ///< e.g. "GCC 13.2.0"
  std::string build_type;     ///< CMake config, e.g. "Release"
  std::string cxx_flags;      ///< configured CMAKE_CXX_FLAGS (may be empty)
  unsigned hardware_threads = 0;
  std::string os;             ///< coarse platform tag, e.g. "linux"
  std::string timestamp;      ///< caller-provided (see utc_timestamp())

  [[nodiscard]] telemetry::json_value to_json() const;
  [[nodiscard]] std::string to_string() const;
};

/// Snapshot of the current process's build/runtime environment.  The
/// timestamp is passed in, not read here: reports stay deterministic
/// under replay, and the one clock read sits visibly in the driver.
[[nodiscard]] environment env_info(std::string timestamp = "");

/// Current wall-clock time as ISO-8601 UTC ("2026-08-06T12:00:00Z") —
/// the conventional value drivers pass into env_info.
[[nodiscard]] std::string utc_timestamp();

}  // namespace cgp::perf
