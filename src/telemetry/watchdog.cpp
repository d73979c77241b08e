#include "telemetry/watchdog.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"

namespace cgp::telemetry::live {
namespace {

counter& stalls_counter() {
  static counter& c =
      registry::global().get_counter("telemetry.watchdog.stalls_detected");
  return c;
}

}  // namespace

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

void watchdog::on_stall(std::function<void(const stall_event&)> cb) {
  const std::lock_guard lock(mu_);
  cb_ = std::move(cb);
}

std::size_t watchdog::check(std::uint64_t now_ms, std::uint64_t period_ms,
                            std::size_t miss_threshold) {
  if constexpr (!kEnabled) return 0;
  const std::uint64_t budget_ms =
      period_ms * static_cast<std::uint64_t>(miss_threshold);
  std::vector<stall_event> fresh;
  std::function<void(const stall_event&)> cb;
  {
    const std::lock_guard lock(mu_);
    // Prune registrations whose owner dropped the shared_ptr.
    beats_.erase(std::remove_if(beats_.begin(), beats_.end(),
                                [](const std::weak_ptr<heartbeat>& w) {
                                  return w.expired();
                                }),
                 beats_.end());
    for (const std::weak_ptr<heartbeat>& w : beats_) {
      const std::shared_ptr<heartbeat> hb = w.lock();
      if (!hb) continue;
      if (!hb->busy_.load(std::memory_order_relaxed)) continue;
      const std::uint64_t last = hb->last_beat_ms_.load(std::memory_order_relaxed);
      if (now_ms < last || now_ms - last <= budget_ms) continue;
      // One verdict per stall episode: flagged_ clears when the
      // participant completes the unit of work (end_work).
      if (hb->flagged_.exchange(true, std::memory_order_relaxed)) continue;
      stall_event ev;
      ev.participant = hb->name();
      ev.last_beat_ms = last;
      ev.detected_at_ms = now_ms;
      ev.silent_ms = now_ms - last;
      fresh.push_back(ev);
      stalls_.push_back(std::move(ev));
    }
    cb = cb_;
  }
  for (const stall_event& ev : fresh) {
    stalls_counter().add(1);
    flight_recorder::global().note(
        flight_entry::kind::watchdog, ev.participant,
        static_cast<double>(ev.silent_ms),
        "stall: silent " + std::to_string(ev.silent_ms) + "ms while busy");
    // A root instant: the sampler thread checking here has no trace
    // context, and the verdict must reach the trace anyway.
    trace::root_instant("watchdog.stall: " + ev.participant,
                        "telemetry.watchdog",
                        {{"silent_ms", std::to_string(ev.silent_ms)}});
    if (cb) cb(ev);
  }
  return fresh.size();
}

std::vector<stall_event> watchdog::stalls() const {
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
  const std::size_t before = beats_.size();
  beats_.erase(std::remove_if(beats_.begin(), beats_.end(),
                              [](const std::weak_ptr<heartbeat>& w) {
                                return w.expired();
                              }),
               beats_.end());
  return before - beats_.size();
}

void watchdog::reset() {
  const std::lock_guard lock(mu_);
  stalls_.clear();
  cb_ = nullptr;
  beats_.erase(std::remove_if(beats_.begin(), beats_.end(),
                              [](const std::weak_ptr<heartbeat>& w) {
                                return w.expired();
                              }),
               beats_.end());
}

}  // namespace cgp::telemetry::live
