#include "perf/env_info.hpp"

#include <ctime>
#include <sstream>
#include <thread>

namespace cgp::perf {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#elif defined(_MSC_VER)
  return "MSVC " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

std::string os_id() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "macos";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

}  // namespace

telemetry::json_value environment::to_json() const {
  telemetry::json_value v = telemetry::json_object();
  v.obj["compiler"] = telemetry::json_string(compiler);
  v.obj["build_type"] = telemetry::json_string(build_type);
  v.obj["cxx_flags"] = telemetry::json_string(cxx_flags);
  v.obj["hardware_threads"] = telemetry::json_number(hardware_threads);
  v.obj["os"] = telemetry::json_string(os);
  v.obj["timestamp"] = telemetry::json_string(timestamp);
  return v;
}

std::string environment::to_string() const {
  std::ostringstream os_;
  os_ << compiler << " [" << build_type << "] " << os << " threads="
      << hardware_threads;
  if (!timestamp.empty()) os_ << " at " << timestamp;
  return os_.str();
}

environment env_info(std::string timestamp) {
  // Everything but the timestamp is a process-lifetime constant, so probe
  // it exactly once: every exporter in the process (telemetry, trace,
  // perf, live) then stamps the SAME block, not a per-call re-derivation.
  static const environment cached = [] {
    environment e;
    e.compiler = compiler_id();
#ifdef CGP_BUILD_TYPE
    e.build_type = CGP_BUILD_TYPE;
#endif
    if (e.build_type.empty()) e.build_type = "unspecified";
#ifdef CGP_CXX_FLAGS
    e.cxx_flags = CGP_CXX_FLAGS;
#endif
    e.hardware_threads = std::thread::hardware_concurrency();
    if (e.hardware_threads == 0) e.hardware_threads = 1;
    e.os = os_id();
    return e;
  }();
  environment e = cached;
  e.timestamp = std::move(timestamp);
  return e;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace cgp::perf
