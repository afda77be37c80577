#ifndef PRESTOCPP_SCHEDULE_TASK_EXECUTOR_H_
#define PRESTOCPP_SCHEDULE_TASK_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "exec/task.h"
#include "stats/metrics_registry.h"

namespace presto {

/// Executor configuration. The quantum mirrors the paper's one-second
/// maximum (scaled to our much smaller cluster); five MLFQ levels with
/// decreasing CPU shares match §IV-F1.
struct ExecutorConfig {
  int threads = 2;
  int64_t quantum_nanos = 2'000'000;  // 2 ms
  /// Cumulative task-CPU thresholds (nanos) separating the 5 levels.
  int64_t level_thresholds[4] = {10'000'000, 100'000'000, 1'000'000'000,
                                 10'000'000'000};
  /// Target CPU share per level (highest priority first).
  double level_shares[5] = {0.35, 0.25, 0.18, 0.12, 0.10};
  /// Output-buffer utilization above which a task's effective driver
  /// concurrency is reduced (§IV-E2).
  double buffer_backpressure_threshold = 0.9;
  /// True scheduling policy: kMlfq (paper) or kFifo (ablation baseline).
  bool use_mlfq = true;
};

/// Cooperative multi-tasking executor for one worker (§IV-F1): many tasks'
/// drivers share a small pool of threads; a driver runs for at most one
/// quantum, then yields. Tasks are classified into the five levels of a
/// multi-level feedback queue by their accumulated CPU time, so new and
/// inexpensive queries get CPU within milliseconds even under load (Fig. 8).
///
/// A blocked driver is parked outside the queues until the event it waits
/// on fires its Wakeup (a split, a page, room in a full buffer, a join
/// build, a kill), or until a deadline it asked for passes; idle threads
/// sleep until a driver becomes runnable or the earliest deadline.
class TaskExecutor {
 public:
  TaskExecutor(ExecutorConfig config, int worker_id);
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  /// Registers a task: all its drivers become runnable. `on_done` fires
  /// exactly once, after EVERY driver has drained from the executor — with
  /// OK if all finished, else the first error. Firing only on drain means
  /// the callback may safely destroy the task and everything its drivers
  /// reference; errors still propagate fast because the first failing
  /// driver kills the query memory, which makes the remaining drivers fail
  /// their next scheduling check.
  void AddTask(std::shared_ptr<TaskExec> task,
               std::function<void(Status)> on_done);

  /// Total CPU-busy nanoseconds across executor threads (Fig. 8 metric).
  int64_t busy_nanos() const { return busy_nanos_.load(); }
  /// Number of tasks currently registered.
  int active_tasks() const;

  /// Quanta executed at MLFQ level `level` (0..4) since startup.
  int64_t quanta_at_level(int level) const {
    return quanta_[static_cast<size_t>(level)].load();
  }

  /// Live scheduling-queue readings for the worker's /v1/metrics and
  /// /v1/status endpoints (ISSUE 10). Each takes mu_ briefly.
  /// Runnable drivers queued at MLFQ level `level` (0..4).
  int64_t queue_depth(int level) const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(levels_[static_cast<size_t>(level)].size());
  }
  /// Blocked drivers parked outside the runnable queues.
  int64_t parked_drivers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_;
  }
  /// Parked drivers put back into the run queues since startup, by cause:
  /// the event they waited on fired, or a deadline they asked for passed.
  int64_t signal_wakeups() const { return signal_wakeups_.load(); }
  int64_t deadline_wakeups() const { return deadline_wakeups_.load(); }
  /// Drivers not yet drained, runnable or parked or mid-quantum.
  int64_t running_drivers() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (const auto& entry : tasks_) total += entry->remaining_drivers;
    return total;
  }
  /// MLFQ level a task with `cpu_nanos` accumulated CPU runs at.
  int LevelForCpu(int64_t cpu_nanos) const { return LevelOf(cpu_nanos); }

  /// Installs a histogram observing each quantum's CPU seconds (may be
  /// null; swapped in by the engine after construction).
  void set_quantum_histogram(Histogram* histogram) {
    quantum_histogram_.store(histogram);
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct DriverEntry;

  struct TaskEntry {
    std::shared_ptr<TaskExec> task;
    std::function<void(Status)> on_done;
    int remaining_drivers = 0;
    /// First driver error; reported to on_done when the last driver drains.
    Status first_error;
    std::vector<std::unique_ptr<DriverEntry>> drivers;
  };

  /// One driver's scheduling state; lives as long as its TaskEntry. The
  /// parked fields are guarded by mu_.
  struct DriverEntry {
    Driver* driver = nullptr;
    TaskEntry* task_entry = nullptr;
    // When the driver last became runnable; the wait until dequeue is the
    // driver's queued time (charged to its sink operator).
    Clock::time_point runnable_since{};
    // MLFQ level of the previous quantum, for level-change trace instants.
    int last_level = 0;
    bool parked = false;
    // Position in deadlines_ while parked with a deadline.
    std::optional<std::multimap<Clock::time_point, DriverEntry*>::iterator>
        deadline;
  };

  void WorkerLoop();
  int LevelOf(int64_t cpu_nanos) const;
  // Picks the next runnable driver honoring level shares; null if none.
  // Re-arms parked drivers whose deadline passed first. Caller holds mu_.
  DriverEntry* NextDriver();
  // Appends to the driver's MLFQ level; caller holds mu_.
  void EnqueueLocked(DriverEntry* entry, Clock::time_point now);
  void Requeue(DriverEntry* entry);
  // Parks a blocked driver outside the runnable queues (§IV-F1: blocked
  // drivers relinquish their thread) unless its Wakeup fired since `seq`
  // was read, in which case it is requeued at once.
  void Park(DriverEntry* entry, uint64_t seq);
  // The Wakeup callback: moves a parked driver back to its level.
  void Unpark(DriverEntry* entry);
  void DriverDone(DriverEntry* entry, const Status& status);

  ExecutorConfig config_;
  int worker_id_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<DriverEntry*> levels_[5];
  // Parked drivers that asked for a deadline, earliest first.
  std::multimap<Clock::time_point, DriverEntry*> deadlines_;
  int64_t parked_ = 0;
  std::vector<std::shared_ptr<TaskEntry>> tasks_;
  double level_consumed_[5] = {0, 0, 0, 0, 0};
  bool stop_ = false;
  std::vector<std::thread> threads_;
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> quanta_[5] = {};
  std::atomic<int64_t> signal_wakeups_{0};
  std::atomic<int64_t> deadline_wakeups_{0};
  std::atomic<Histogram*> quantum_histogram_{nullptr};
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_TASK_EXECUTOR_H_
