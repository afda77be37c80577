#include "schedule/task_executor.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/stopwatch.h"

namespace presto {

namespace {

// Re-run delay for a driver that blocked without registering a wait.
constexpr std::chrono::milliseconds kStrayBlockDelay{1};

}  // namespace

TaskExecutor::TaskExecutor(ExecutorConfig config, int worker_id)
    : config_(config), worker_id_(worker_id) {
  threads_.reserve(static_cast<size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskExecutor::~TaskExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Drivers still registered (their tasks were abandoned) may sit in wait
  // lists that outlive the executor: disarm them so a late event does not
  // call into a destroyed executor.
  std::vector<std::shared_ptr<TaskEntry>> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks = tasks_;
  }
  for (const auto& task : tasks) {
    for (const auto& entry : task->drivers) entry->driver->wakeup()->Arm({});
  }
}

void TaskExecutor::AddTask(std::shared_ptr<TaskExec> task,
                           std::function<void(Status)> on_done) {
  auto entry = std::make_shared<TaskEntry>();
  entry->task = std::move(task);
  entry->on_done = std::move(on_done);
  entry->remaining_drivers =
      static_cast<int>(entry->task->drivers().size());
  if (entry->remaining_drivers == 0) {
    // Degenerate task with no drivers: complete immediately, never register.
    entry->on_done(Status::OK());
    return;
  }
  TaskExec& exec = *entry->task;
  for (auto& driver : exec.drivers()) {
    auto de = std::make_unique<DriverEntry>();
    de->driver = driver.get();
    de->task_entry = entry.get();
    const WakeupPtr& wakeup = driver->wakeup();
    wakeup->Arm([this, ptr = de.get()] { Unpark(ptr); });
    // A kill must reach parked drivers too, or they would never see it.
    if (exec.runtime().query_memory != nullptr) {
      exec.runtime().query_memory->OnKill(wakeup);
    }
    exec.kill_switch().OnKill(wakeup);
    entry->drivers.push_back(std::move(de));
  }
  auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(entry);
    for (auto& de : entry->drivers) {
      de->runnable_since = now;
      levels_[0].push_back(de.get());
    }
  }
  cv_.notify_all();
}

int TaskExecutor::active_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(tasks_.size());
}

int TaskExecutor::LevelOf(int64_t cpu_nanos) const {
  for (int level = 0; level < 4; ++level) {
    if (cpu_nanos < config_.level_thresholds[level]) return level;
  }
  return 4;
}

void TaskExecutor::EnqueueLocked(DriverEntry* entry, Clock::time_point now) {
  entry->runnable_since = now;
  int level = LevelOf(entry->task_entry->task->cpu_nanos().load());
  levels_[level].push_back(entry);
}

TaskExecutor::DriverEntry* TaskExecutor::NextDriver() {
  // Re-arm parked drivers whose deadline passed: blocked drivers live
  // outside the runnable queues so they never distort the MLFQ level
  // shares.
  if (!deadlines_.empty()) {
    auto now = Clock::now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      DriverEntry* parked = deadlines_.begin()->second;
      deadlines_.erase(deadlines_.begin());
      parked->deadline.reset();
      parked->parked = false;
      --parked_;
      deadline_wakeups_.fetch_add(1);
      EnqueueLocked(parked, now);  // parked time is blocked, not queued
    }
  }
  // Pick the non-empty level with the lowest consumed/share ratio so each
  // level receives its configured fraction of CPU time (§IV-F1).
  if (!config_.use_mlfq) {
    for (auto& level : levels_) {
      if (!level.empty()) {
        DriverEntry* entry = level.front();
        level.pop_front();
        return entry;
      }
    }
    return nullptr;
  }
  int best = -1;
  double best_ratio = 0;
  for (int level = 0; level < 5; ++level) {
    if (levels_[level].empty()) continue;
    double ratio = level_consumed_[level] / config_.level_shares[level];
    if (best < 0 || ratio < best_ratio) {
      best = level;
      best_ratio = ratio;
    }
  }
  if (best < 0) return nullptr;
  DriverEntry* entry = levels_[best].front();
  levels_[best].pop_front();
  return entry;
}

void TaskExecutor::Requeue(DriverEntry* entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnqueueLocked(entry, Clock::now());
  }
  cv_.notify_one();
}

void TaskExecutor::Park(DriverEntry* entry, uint64_t seq) {
  const Wakeup& wakeup = *entry->driver->wakeup();
  std::optional<Clock::time_point> deadline = wakeup.deadline();
  if (!deadline.has_value() && !wakeup.waiting()) {
    // Blocked without naming a wait: a missing signal. Re-run it soon
    // rather than never; it shows as a deadline wake-up.
    deadline = Clock::now() + kStrayBlockDelay;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (wakeup.seq() != seq) {
    // The event fired while the driver ran: it is runnable again. This
    // thread returns to the loop and finds it, so no notify is needed.
    signal_wakeups_.fetch_add(1);
    EnqueueLocked(entry, Clock::now());
    return;
  }
  entry->parked = true;
  ++parked_;
  // An idle thread needs no notify for the deadline either: this thread
  // goes back to the loop and sleeps no later than the earliest one.
  if (deadline.has_value()) {
    entry->deadline = deadlines_.emplace(*deadline, entry);
  }
}

void TaskExecutor::Unpark(DriverEntry* entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!entry->parked) return;  // running or queued: seq covers it
    if (entry->deadline.has_value()) {
      deadlines_.erase(*entry->deadline);
      entry->deadline.reset();
    }
    entry->parked = false;
    --parked_;
    signal_wakeups_.fetch_add(1);
    EnqueueLocked(entry, Clock::now());
  }
  cv_.notify_one();
}

void TaskExecutor::DriverDone(DriverEntry* entry, const Status& status) {
  // Disarm first: once Arm returns no event can reach Unpark for this
  // entry, which the last driver's teardown below destroys.
  entry->driver->wakeup()->Arm({});
  std::shared_ptr<TaskEntry> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TaskEntry& te = *entry->task_entry;
    --te.remaining_drivers;
    if (!status.ok() && te.first_error.ok()) te.first_error = status;
    if (te.remaining_drivers > 0) return;
    // Last driver drained: nothing in the executor references this task
    // anymore, so the callback may tear it down. Firing on the FIRST error
    // instead (as this used to) let the owner destroy the task while
    // sibling drivers were still queued — a use-after-free.
    auto it = std::find_if(tasks_.begin(), tasks_.end(),
                           [&](const auto& t) { return t.get() == &te; });
    finished = std::move(*it);
    tasks_.erase(it);
  }
  std::function<void(Status)> callback = std::move(finished->on_done);
  finished->on_done = nullptr;
  if (callback) callback(finished->first_error);
}

void TaskExecutor::WorkerLoop() {
  for (;;) {
    DriverEntry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stop_) return;
        entry = NextDriver();
        if (entry != nullptr) break;
        // Idle: sleep until a driver becomes runnable or the earliest
        // parked deadline passes — no periodic wake-ups.
        if (deadlines_.empty()) {
          cv_.wait(lock);
        } else {
          // A copy: wait_until holds its argument by reference while the
          // lock is released, and an Unpark may erase that map node.
          Clock::time_point earliest = deadlines_.begin()->first;
          cv_.wait_until(lock, earliest);
        }
      }
    }
    TaskExec& task = *entry->task_entry->task;
    // Read before anything that may park the driver: an event from here on
    // turns the park into a requeue.
    uint64_t seq = entry->driver->wakeup()->BeginRun();

    // Runnable-to-dispatch wait: charged to the pipeline's sink operator
    // (the EXPLAIN ANALYZE "queued" column).
    if (entry->runnable_since != Clock::time_point{}) {
      int64_t waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - entry->runnable_since)
                           .count();
      entry->driver->sink().ctx().queued_nanos.fetch_add(waited);
    }

    // Query killed (OOM, cancel, or early finish), or this task alone
    // superseded: drop the driver.
    if (task.runtime().query_memory != nullptr &&
        task.runtime().query_memory->killed()) {
      DriverDone(entry, task.runtime().query_memory->kill_reason());
      continue;
    }
    if (task.kill_switch().killed()) {
      DriverDone(entry, task.kill_switch().reason());
      continue;
    }

    // §IV-E2: consistently full output buffers reduce a task's effective
    // concurrency — run this driver only if buffers have room. Otherwise
    // it would only stall on them; park it until the consumer acks.
    if (task.spec().consumer_partitions > 0 &&
        task.runtime().exchange != nullptr &&
        task.runtime().exchange->OutputAbove(
            task.spec().query_id, task.spec().fragment_id,
            task.spec().task_index, config_.buffer_backpressure_threshold,
            entry->driver->wakeup())) {
      Park(entry, seq);
      continue;
    }

    if (FaultInjection::Enabled()) {
      // Deterministic straggler injection (ISSUE 9): a delay-only point
      // that stalls the quantum without failing it. Any armed error is
      // ignored here — failures belong to executor.run_driver below.
      (void)FaultInjection::Instance().Hit("executor.driver_stall");
      Status injected = FaultInjection::Instance().Hit("executor.run_driver");
      if (!injected.ok()) {
        if (task.runtime().query_memory != nullptr) {
          task.runtime().query_memory->Kill(injected);
        }
        DriverDone(entry, injected);
        continue;
      }
    }

    TraceRecorder* trace = entry->driver->trace();
    int64_t quantum_start = trace != nullptr ? trace->NowNanos() : 0;
    int64_t cpu = 0;
    auto result = entry->driver->Process(config_.quantum_nanos, &cpu);
    busy_nanos_.fetch_add(cpu);
    task.cpu_nanos().fetch_add(cpu);
    int level;
    {
      std::lock_guard<std::mutex> lock(mu_);
      level = LevelOf(task.cpu_nanos().load());
      quanta_[level].fetch_add(1);
      level_consumed_[level] += static_cast<double>(cpu);
      // Periodically decay so shares adapt to the current mix.
      if (level_consumed_[level] > 1e12) {
        for (double& c : level_consumed_) c /= 2;
      }
    }
    if (Histogram* histogram = quantum_histogram_.load()) {
      histogram->Observe(static_cast<double>(cpu) / 1e9);
    }
    if (trace != nullptr) {
      const char* state = !result.ok() ? "failed"
                          : *result == Driver::State::kFinished
                              ? "finished"
                          : *result == Driver::State::kBlocked ? "blocked"
                                                               : "yielded";
      trace->RecordSpan("executor", "quantum", entry->driver->trace_pid(),
                        entry->driver->trace_tid(), quantum_start,
                        trace->NowNanos() - quantum_start,
                        {{"level", std::to_string(level)}, {"state", state}});
      if (level != entry->last_level) {
        trace->RecordInstant("executor", "level_change",
                             entry->driver->trace_pid(),
                             entry->driver->trace_tid(),
                             {{"from", std::to_string(entry->last_level)},
                              {"to", std::to_string(level)}});
      }
    }
    entry->last_level = level;
    if (!result.ok()) {
      // Fail-fast propagation: a genuine error kills the query's sibling
      // drivers via the shared memory context. A Cancelled status is
      // excluded — it is aimed at one task (recovery superseding it, or a
      // coordinator task-delete), and killing the query-wide context here
      // would take down the very replacement tasks recovery just created
      // on this worker (ISSUE 7). Query-wide cancels kill the memory
      // context at their source already.
      if (task.runtime().query_memory != nullptr &&
          result.status().code() != StatusCode::kCancelled) {
        task.runtime().query_memory->Kill(result.status());
      }
      DriverDone(entry, result.status());
      continue;
    }
    switch (*result) {
      case Driver::State::kFinished:
        DriverDone(entry, Status::OK());
        break;
      case Driver::State::kYielded:
        // Still runnable: back into its MLFQ level.
        Requeue(entry);
        break;
      case Driver::State::kBlocked:
        // Out of the runnable queues until its event or deadline (§IV-F1:
        // blocked drivers relinquish the thread and must not distort the
        // MLFQ level shares).
        Park(entry, seq);
        break;
      case Driver::State::kFailed: {
        Status failed = Status::Internal("driver failed");
        // Kill here too (like the !result.ok() path above) so sibling
        // drivers of the same query stop promptly instead of running on.
        if (task.runtime().query_memory != nullptr) {
          task.runtime().query_memory->Kill(failed);
        }
        DriverDone(entry, failed);
        break;
      }
    }
  }
}

}  // namespace presto
