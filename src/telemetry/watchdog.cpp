#include "telemetry/watchdog.hpp"

#include <utility>

namespace cgp::telemetry::live {

heartbeat::heartbeat(std::string name) : name_(std::move(name)) {
  last_beat_ms_.store(steady_now_ms(), std::memory_order_relaxed);
}

void heartbeat::beat() noexcept {
  if constexpr (!kEnabled) return;
  last_beat_ms_.store(steady_now_ms(), std::memory_order_relaxed);
}

void heartbeat::beat_at(std::uint64_t now_ms) noexcept {
  if constexpr (!kEnabled) return;
  last_beat_ms_.store(now_ms, std::memory_order_relaxed);
}

void heartbeat::begin_work() noexcept {
  if constexpr (!kEnabled) return;
  last_beat_ms_.store(steady_now_ms(), std::memory_order_relaxed);
  busy_.store(true, std::memory_order_relaxed);
}

void heartbeat::end_work() noexcept {
  if constexpr (!kEnabled) return;
  last_beat_ms_.store(steady_now_ms(), std::memory_order_relaxed);
  busy_.store(false, std::memory_order_relaxed);
  // A completed unit of work ends any stall episode: the next silent busy
  // stretch earns a fresh verdict.
  flagged_.store(false, std::memory_order_relaxed);
}

watchdog& watchdog::global() {
  static watchdog w;
  return w;
}

std::shared_ptr<heartbeat> watchdog::register_heartbeat(std::string name) {
  auto hb = std::make_shared<heartbeat>(std::move(name));
  if constexpr (kEnabled) {
    const std::lock_guard lock(mu_);
    beats_.push_back(hb);
  }
  return hb;
}

void watchdog::on_stall(std::function<void(const verdict&)> cb) {
  const std::lock_guard lock(mu_);
  cb_ = std::move(cb);
}

std::size_t watchdog::check(std::uint64_t now_ms, std::uint64_t period_ms,
                            std::size_t miss_threshold) {
  if constexpr (!kEnabled) return 0;
  const std::uint64_t budget_ms =
      period_ms * static_cast<std::uint64_t>(miss_threshold);
  std::vector<verdict> fresh;
  std::function<void(const verdict&)> cb;
  {
    const std::lock_guard lock(mu_);
    prune_locked();
    for (const std::weak_ptr<heartbeat>& w : beats_) {
      const std::shared_ptr<heartbeat> hb = w.lock();
      if (!hb) continue;
      if (!hb->busy_.load(std::memory_order_relaxed)) continue;
      const std::uint64_t last = hb->last_beat_ms_.load(std::memory_order_relaxed);
      if (now_ms < last || now_ms - last <= budget_ms) continue;
      // One verdict per stall episode: flagged_ clears when the
      // participant completes the unit of work (end_work).
      if (hb->flagged_.exchange(true, std::memory_order_relaxed)) continue;
      fresh.push_back({.source = "watchdog",
                       .rule = "stall",
                       .target = hb->name(),
                       .value = static_cast<double>(now_ms - last),
                       .threshold = static_cast<double>(budget_ms),
                       .t_ms = now_ms});
      stalls_.push_back(fresh.back());
    }
    cb = cb_;
  }
  for (const verdict& v : fresh) {
    raise(v);
    if (cb) cb(v);
  }
  return fresh.size();
}

std::vector<verdict> watchdog::stalls() const {
  const std::lock_guard lock(mu_);
  return stalls_;
}

std::size_t watchdog::stall_count() const {
  const std::lock_guard lock(mu_);
  return stalls_.size();
}

std::size_t watchdog::heartbeat_count() const {
  const std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const std::weak_ptr<heartbeat>& w : beats_)
    if (!w.expired()) ++n;
  return n;
}

std::size_t watchdog::prune_expired() {
  const std::lock_guard lock(mu_);
  return prune_locked();
}

std::size_t watchdog::prune_locked() {
  return std::erase_if(beats_, [](const std::weak_ptr<heartbeat>& w) {
    return w.expired();
  });
}

void watchdog::reset() {
  const std::lock_guard lock(mu_);
  stalls_.clear();
  cb_ = nullptr;
  prune_locked();
}

}  // namespace cgp::telemetry::live
