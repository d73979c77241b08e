// Stall watchdog: liveness monitoring for the concurrent runtimes.
//
// Aggregate counters (telemetry.hpp) and causal traces (trace.hpp) both
// describe work that HAPPENED; neither can point at work that silently
// stopped happening — a thread-pool worker wedged in a task, a transport
// superstep that never reaches its barrier.  The watchdog closes that gap
// with heartbeats: participants register a `heartbeat` handle, stamp it
// while they make progress, and mark themselves busy/idle around units of
// work.  The live sampler (live.hpp) calls `check()` once per sample
// period; any participant that is BUSY and has been silent for more than
// `miss_threshold` periods is flagged exactly once per stall episode: a
// `watchdog.stall` verdict goes through the one verdict path
// (`live::raise`, recorder.hpp), and an optional callback fires so drivers
// and tests can react (`obs_export live` plants a stall and gates on
// detection).
//
// Idle participants are never flagged: a worker parked on its condition
// variable is healthy, not stalled — silence only indicts a participant
// that claimed to be working.
//
// Cost discipline: beat/begin/end are one clock read plus relaxed atomic
// stores; registration is a mutex + weak_ptr push.  The watchdog holds
// only weak references, so a participant's owner (a pool, a transport run)
// drops its shared_ptr and the slot self-prunes at the next check.
// Defining CGP_TELEMETRY_DISABLED compiles every hook down to a no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::telemetry::live {

/// A registered participant's liveness handle.  Obtained from
/// watchdog::register_heartbeat; all methods are lock-free and safe to
/// call from the participant's own thread while check() runs elsewhere.
class heartbeat {
 public:
  explicit heartbeat(std::string name);

  /// Stamps "still making progress, now".
  void beat() noexcept;
  /// Stamps with an explicit timestamp (manual-clock tests).
  void beat_at(std::uint64_t now_ms) noexcept;
  /// Entering a unit of work: from here, silence counts as a stall.
  void begin_work() noexcept;
  /// Leaving the unit: silence is idleness again, and any stall episode
  /// ends (the next silent busy stretch is a fresh verdict).
  void end_work() noexcept;

  [[nodiscard]] bool busy() const noexcept {
    return busy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t last_beat_ms() const noexcept {
    return last_beat_ms_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class watchdog;

  std::string name_;
  std::atomic<std::uint64_t> last_beat_ms_{0};
  std::atomic<bool> busy_{false};
  std::atomic<bool> flagged_{false};  ///< one verdict per stall episode
};

class watchdog {
 public:
  watchdog() = default;
  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  [[nodiscard]] static watchdog& global();

  /// Registers a participant.  The returned shared_ptr is the OWNING
  /// reference: keep it alive for the participant's lifetime, drop it to
  /// deregister (the watchdog only holds a weak_ptr).
  [[nodiscard]] std::shared_ptr<heartbeat> register_heartbeat(
      std::string name);

  /// Installs the stall callback (invoked outside the watchdog lock, once
  /// per verdict).  Pass nullptr to remove.
  void on_stall(std::function<void(const verdict&)> cb);

  /// One liveness sweep at `now_ms`: flags every busy participant silent
  /// for longer than `miss_threshold * period_ms`, prunes dropped
  /// registrations, returns the number of NEW verdicts.  Called by the
  /// live sampler each tick; callable directly with a manual clock.
  std::size_t check(std::uint64_t now_ms, std::uint64_t period_ms,
                    std::size_t miss_threshold);

  /// All verdicts so far, in detection order.  Each is rule
  /// `watchdog.stall`: the target is the participant, the value its
  /// silent ms, the threshold the budget, and its last beat was at
  /// `t_ms - value`.
  [[nodiscard]] std::vector<verdict> stalls() const;
  [[nodiscard]] std::size_t stall_count() const;

  /// Currently registered (live, non-expired) participants.
  [[nodiscard]] std::size_t heartbeat_count() const;

  /// Eagerly drops expired registrations, returning how many were
  /// removed.  check() prunes lazily on its next tick, but a long-lived
  /// sampler can go a whole period holding dangling weak_ptr slots from a
  /// torn-down pool — owners that deregister in bulk (the pool's
  /// destructor) call this so a stopped pool leaves nothing behind.
  std::size_t prune_expired();

  /// Drops verdicts and the callback, prunes expired registrations
  /// (test isolation; live handles stay registered).
  void reset();

 private:
  /// Drops registrations whose owner released the shared_ptr (mu_ held).
  std::size_t prune_locked();

  mutable std::mutex mu_;
  std::vector<std::weak_ptr<heartbeat>> beats_;
  std::vector<verdict> stalls_;
  std::function<void(const verdict&)> cb_;
};

}  // namespace cgp::telemetry::live
