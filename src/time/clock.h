// The clock seam: one notion of "virtual now" shared by every time consumer
// (DESIGN.md §12).
//
// A Clock maps a run's virtual timeline onto execution.  The emulation
// runtime (SessionMux), its transports, the fault injector, and the trace
// timestamps all read the same Clock, so there is exactly one time origin
// per run and three interchangeable ways to advance it:
//
//   * RealClock — virtual time is wall time times `speedup`; sleep_until
//     blocks the calling thread for the corresponding wall interval.  The
//     pre-seam behaviour, and the only mode where UDP socket latency is
//     physically meaningful.
//   * WarpClock — virtual time jumps as fast as the run loops allow.  Every
//     participating thread parks in sleep_until; once all of them are
//     parked, the clock advances to the earliest requested wake-up (ties
//     wake together) — a condition-variable barrier over the shared
//     EventQueue.  Hours of virtual adversity run in CI seconds; thread
//     interleaving *within* one instant still varies, so warp runs are fast
//     but not bit-reproducible.
//   * DeterministicClock — single-threaded cooperative stepping: now()
//     advances only when the (sole) driver calls sleep_until/advance_to.
//     With every RNG seeded, two same-seed runs are bit-identical end to
//     end, which is what makes seed-replay debugging possible.
//
// Threading contract: now() is safe from any thread.  sleep_until/leave may
// only be called by threads counted in start(participants); a WarpClock
// deadlocks if a registered participant neither sleeps nor leaves, exactly
// like a missing thread at any barrier.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "time/event_queue.h"

namespace omnc::vtime {

enum class ClockMode { kReal, kWarp, kDeterministic };

/// "real" | "warp" | "det".
const char* clock_mode_name(ClockMode mode);

/// Parses "real" | "warp" | "det" (also accepts "deterministic").
bool parse_clock_mode(const std::string& name, ClockMode* out);

class Clock {
 public:
  virtual ~Clock() = default;

  virtual ClockMode mode() const = 0;

  /// Virtual seconds since start(); 0.0 before the run opens.
  virtual double now() const = 0;

  /// Opens the run for `participants` run-loop threads.  Call once, before
  /// any participant sleeps.
  virtual void start(int participants) = 0;

  /// Blocks the calling participant until virtual time reaches `t`; returns
  /// immediately when `t` has already passed.
  virtual void sleep_until(double t) = 0;

  /// The calling participant permanently exits the run loop; it must not
  /// sleep afterwards.  The WarpClock shrinks its barrier so the remaining
  /// participants keep advancing.
  virtual void leave() = 0;
};

/// Wall time times speedup, from one steady origin captured at start().
/// This class is the single place in the tree allowed to touch
/// std::chrono::steady_clock or thread sleeps for run timing (grep-enforced
/// by the no_wallclock_outside_realclock test).
class RealClock final : public Clock {
 public:
  explicit RealClock(double speedup = 1.0);

  ClockMode mode() const override { return ClockMode::kReal; }
  double now() const override;
  void start(int participants) override;
  void sleep_until(double t) override;
  void leave() override {}

  double speedup() const { return speedup_; }

 private:
  double speedup_;
  bool started_ = false;
  std::uint64_t origin_ns_ = 0;  // steady epoch of start()
};

/// Barrier-synchronized virtual time: advances to the earliest pending
/// wake-up whenever every active participant is parked in sleep_until.
class WarpClock final : public Clock {
 public:
  ClockMode mode() const override { return ClockMode::kWarp; }
  double now() const override;
  void start(int participants) override;
  void sleep_until(double t) override;
  void leave() override;

 private:
  /// Fires every wake-up at the earliest pending instant once all active
  /// participants are asleep.  Caller holds mutex_.
  void advance_locked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  EventQueue wakeups_;
  int active_ = 0;
  int sleeping_ = 0;
};

/// Single-threaded cooperative time: sleep_until just moves the hand.  Also
/// handy as a hand-cranked time source in unit tests.
class DeterministicClock final : public Clock {
 public:
  ClockMode mode() const override { return ClockMode::kDeterministic; }
  double now() const override { return now_; }
  void start(int participants) override;
  void sleep_until(double t) override { advance_to(t); }
  void leave() override {}

  /// Moves the hand forward; moving backwards is a no-op.
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }

 private:
  double now_ = 0.0;
};

/// `speedup` applies to RealClock only (virtual seconds per wall second).
std::unique_ptr<Clock> make_clock(ClockMode mode, double speedup);

}  // namespace omnc::vtime
