#include "telemetry/telemetry.hpp"

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "telemetry/export.hpp"

namespace cgp::telemetry {

std::uint64_t steady_now_ns() noexcept {
  const auto reading = [] { return std::chrono::steady_clock::now(); };
  static const auto epoch = reading();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(reading() - epoch)
          .count());
}

namespace detail {

std::size_t shard_index() noexcept {
  // Hash the thread id once per thread; distinct threads land on distinct
  // shards with high probability, so concurrent add()s do not contend.
  static thread_local const std::size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      counter::kShards;
  return slot;
}

}  // namespace detail

// --- registry ---------------------------------------------------------------

registry& registry::global() {
  static registry r;
  return r;
}

counter& registry::get_counter(const std::string& name) {
  const std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<counter>();
  return *slot;
}

gauge& registry::get_gauge(const std::string& name) {
  const std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<gauge>();
  return *slot;
}

histogram& registry::get_histogram(const std::string& name) {
  const std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> registry::counter_values()
    const {
  const std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> registry::gauge_values()
    const {
  const std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
registry::histogram_totals() const {
  const std::lock_guard lock(mu_);
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    out.emplace_back(name, h->count(), h->sum());
  return out;
}

std::vector<registry::histogram_view> registry::histogram_views() const {
  const std::lock_guard lock(mu_);
  std::vector<histogram_view> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    histogram_view v;
    v.name = name;
    v.count = h->count();
    v.sum = h->sum();
    for (std::size_t i = 0; i < histogram::kBuckets; ++i)
      v.buckets[i] = h->bucket_count(i);
    out.push_back(std::move(v));
  }
  return out;
}

std::uint64_t registry::counter_sum(const std::string& prefix) const {
  const std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second->value();
  }
  return total;
}

void registry::reset() {
  const std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string registry::export_json() const {
  const std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":{\"count\":" << h->count()
       << ",\"sum\":" << h->sum()
       << ",\"mean\":" << json_number_text(h->mean());
    if (h->count() == 0) {
      // No samples means no percentiles: explicit nulls, not a fake 0.
      os << ",\"p50\":null,\"p95\":null,\"p99\":null";
    } else {
      os << ",\"p50\":" << json_number_text(h->percentile(50))
         << ",\"p95\":" << json_number_text(h->percentile(95))
         << ",\"p99\":" << json_number_text(h->percentile(99));
    }
    os << ",\"max\":" << h->max() << ",\"buckets\":[";
    bool first_b = true;
    for (std::size_t i = 0; i < histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;  // sparse: only non-empty buckets exported
      const auto [lo, hi] = histogram::bucket_bounds(i);
      if (!first_b) os << ",";
      first_b = false;
      os << "{\"lo\":" << lo << ",\"hi\":" << hi << ",\"count\":" << n << "}";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

// --- counter_snapshot -------------------------------------------------------

counter_snapshot::counter_snapshot(registry& reg) : reg_(&reg) {
  for (const auto& [name, v] : reg.counter_values()) base_.emplace(name, v);
}

std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot::delta()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, v] : reg_->counter_values()) {
    const auto it = base_.find(name);
    const std::uint64_t before = it == base_.end() ? 0 : it->second;
    if (v > before) out.emplace_back(name, v - before);
  }
  return out;
}

std::uint64_t counter_snapshot::delta_sum(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& [name, d] : delta())
    if (name.compare(0, prefix.size(), prefix) == 0) total += d;
  return total;
}

}  // namespace cgp::telemetry
