#ifndef PRESTOCPP_COMMON_WAKEUP_H_
#define PRESTOCPP_COMMON_WAKEUP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace presto {

/// Wake-up handle of one driver (§IV-F1: a blocked driver gives up its
/// thread until its input is ready). A blocked operator hands the handle
/// of its driver to whatever it waits on — a split queue, a local or
/// remote shuffle buffer, the result queue, a join build — and that
/// structure calls Fire() when the awaited event happens. The executor
/// arms the handle with a callback that moves the parked driver back to
/// its run queue.
///
/// Lost wakeups are ruled out by the sequence number: the executor reads
/// seq() before running the driver and parks it only if seq() is still
/// unchanged under the executor lock. A Fire() that lands while the driver
/// is still running bumps the sequence first, so the park turns into an
/// immediate requeue; one that lands after the park finds the driver
/// parked and requeues it.
class Wakeup {
 public:
  using Clock = std::chrono::steady_clock;

  /// Records a wake-up and runs the armed callback, if any. Never call
  /// with a lock held that the callback's owner may take.
  void Fire() {
    seq_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (on_fire_) on_fire_();
  }

  uint64_t seq() const { return seq_.load(); }

  /// Installs the callback Fire() runs; an empty function disarms. A
  /// disarm waits for a Fire() in progress, so the callback's captures may
  /// be destroyed as soon as it returns.
  void Arm(std::function<void()> on_fire) {
    std::lock_guard<std::mutex> lock(mu_);
    on_fire_ = std::move(on_fire);
  }

  // Per-run bookkeeping, touched only by the thread running the driver.

  /// Starts one run of the driver: forgets the previous run's waits and
  /// returns the sequence number a later park is checked against.
  uint64_t BeginRun() {
    deadline_.reset();
    waiting_ = false;
    return seq_.load();
  }
  /// Set when the handle is registered with a WaitList during the run.
  void MarkWaiting() { waiting_ = true; }
  bool waiting() const { return waiting_; }
  /// Asks to be re-run no later than `deadline` if the driver blocks in
  /// this run (for waits with a known end, e.g. a frame still on the
  /// simulated wire). The earliest request of the run wins.
  void WakeAt(Clock::time_point deadline) {
    if (!deadline_.has_value() || deadline < *deadline_) deadline_ = deadline;
  }
  std::optional<Clock::time_point> deadline() const { return deadline_; }

 private:
  std::atomic<uint64_t> seq_{0};
  std::mutex mu_;
  std::function<void()> on_fire_;
  std::optional<Clock::time_point> deadline_;
  bool waiting_ = false;
};

using WakeupPtr = std::shared_ptr<Wakeup>;

/// The drivers waiting for one event of a shared structure (a push, a pop,
/// a build finishing). Not synchronized: the owner guards it with its own
/// mutex, checks its condition and calls Add under that mutex (so an event
/// cannot slip between the check and the registration), and fires what
/// Take() returned after releasing it.
class WaitList {
 public:
  /// Registers `waiter` (null is ignored; a repeat registration is kept
  /// once).
  void Add(const WakeupPtr& waiter) {
    if (waiter == nullptr) return;
    waiter->MarkWaiting();
    for (const auto& w : waiters_) {
      if (w == waiter) return;
    }
    waiters_.push_back(waiter);
  }
  bool empty() const { return waiters_.empty(); }
  /// Removes and returns every registered waiter.
  std::vector<WakeupPtr> Take() {
    std::vector<WakeupPtr> out;
    out.swap(waiters_);
    return out;
  }

 private:
  std::vector<WakeupPtr> waiters_;
};

/// Fires every waiter taken from a WaitList.
inline void FireAll(const std::vector<WakeupPtr>& waiters) {
  for (const auto& w : waiters) w->Fire();
}

}  // namespace presto

#endif  // PRESTOCPP_COMMON_WAKEUP_H_
