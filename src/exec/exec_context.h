#ifndef PRESTOCPP_EXEC_EXEC_CONTEXT_H_
#define PRESTOCPP_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wakeup.h"
#include "connector/connector.h"
#include "exchange/exchange.h"
#include "expr/evaluator.h"
#include "memory/memory.h"
#include "stats/operator_stats.h"
#include "stats/trace.h"
#include "vector/page.h"

namespace presto {

/// Queue of splits assigned (incrementally, §IV-D3) to a leaf task. A scan
/// waiting for a split is woken by the next Add or by NoMoreSplits.
class SplitQueue {
 public:
  void Add(SplitPtr split) {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      splits_.push_back(std::move(split));
      wake = waiters_.Take();
    }
    FireAll(wake);
  }
  void NoMoreSplits() {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      no_more_ = true;
      wake = waiters_.Take();
    }
    FireAll(wake);
  }
  /// nullopt + *done=false means "wait, more may come"; `waiter` is then
  /// fired by the next Add or NoMoreSplits.
  std::optional<SplitPtr> Poll(bool* done, const WakeupPtr& waiter = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (splits_.empty()) {
      *done = no_more_;
      if (!no_more_) waiters_.Add(waiter);
      return std::nullopt;
    }
    SplitPtr split = std::move(splits_.front());
    splits_.pop_front();
    *done = false;
    return split;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return splits_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<SplitPtr> splits_;
  bool no_more_ = false;
  WaitList waiters_;
};

/// Bounded result stream from the root fragment to the client. A slow
/// client exerts backpressure all the way down (§IV-E2).
class ResultQueue {
 public:
  explicit ResultQueue(int64_t capacity_bytes = 16LL << 20)
      : capacity_bytes_(capacity_bytes) {}

  /// Producer: false when the queue is full (retry later); `waiter` is
  /// then fired when the client takes a page. A page is admitted only if
  /// it fits within capacity, except into an empty queue (progress
  /// guarantee for oversized pages).
  bool TryPush(Page page, const WakeupPtr& waiter = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t bytes = page.SizeInBytes();
    if (buffered_bytes_ > 0 && buffered_bytes_ + bytes > capacity_bytes_) {
      space_waiters_.Add(waiter);
      return false;
    }
    buffered_bytes_ += bytes;
    // Remember the admitted size: SizeInBytes can change while the page is
    // queued (a lazy column loading, for example), and re-measuring on pop
    // would leak phantom buffered bytes.
    pages_.emplace_back(std::move(page), bytes);
    cv_.notify_all();
    return true;
  }

  void Finish(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    status_ = std::move(status);
    finished_ = true;
    cv_.notify_all();
  }

  /// Client: blocks until a page arrives or the stream ends. Returns
  /// nullopt at end; error status if the query failed.
  Result<std::optional<Page>> Next() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !pages_.empty() || finished_; });
    if (!pages_.empty()) {
      auto [page, bytes] = std::move(pages_.front());
      pages_.pop_front();
      buffered_bytes_ -= bytes;
      std::vector<WakeupPtr> wake = space_waiters_.Take();
      lock.unlock();
      FireAll(wake);
      return std::optional<Page>(std::move(page));
    }
    if (!status_.ok()) return status_;
    return std::optional<Page>();
  }

  bool finished() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<Page, int64_t>> pages_;  // page + admitted bytes
  int64_t buffered_bytes_ = 0;
  int64_t capacity_bytes_;
  bool finished_ = false;
  Status status_;
  WaitList space_waiters_;  // producers blocked on a full queue
};

/// In-task bounded page queue joining pipelines (local shuffles, §IV-C4).
/// A consumer waiting for a page is woken by the next push or by the last
/// producer finishing; a producer waiting for room by the next pop.
class LocalExchangeQueue {
 public:
  explicit LocalExchangeQueue(int producers, int64_t capacity_bytes = 8 << 20)
      : producers_(producers), capacity_bytes_(capacity_bytes) {}

  bool TryPush(Page page, const WakeupPtr& waiter = nullptr) {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      int64_t bytes = page.SizeInBytes();
      // Same admission rule as ExchangeBuffer/ResultQueue: fit, or be the
      // only page in an otherwise empty queue.
      if (buffered_bytes_ > 0 && buffered_bytes_ + bytes > capacity_bytes_) {
        space_waiters_.Add(waiter);
        return false;
      }
      buffered_bytes_ += bytes;
      pages_.emplace_back(std::move(page), bytes);  // see ResultQueue::TryPush
      wake = data_waiters_.Take();
    }
    FireAll(wake);
    return true;
  }

  void ProducerFinished() {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--producers_ == 0) wake = data_waiters_.Take();
    }
    FireAll(wake);
  }

  std::optional<Page> Poll(bool* done, const WakeupPtr& waiter = nullptr) {
    std::vector<WakeupPtr> wake;
    std::optional<Page> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pages_.empty()) {
        *done = producers_ == 0;
        if (!*done) data_waiters_.Add(waiter);
        return std::nullopt;
      }
      auto [page, bytes] = std::move(pages_.front());
      pages_.pop_front();
      buffered_bytes_ -= bytes;
      *done = false;
      out = std::move(page);
      wake = space_waiters_.Take();
    }
    FireAll(wake);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<Page, int64_t>> pages_;  // page + admitted bytes
  int64_t buffered_bytes_ = 0;
  int producers_;
  int64_t capacity_bytes_;
  WaitList data_waiters_;   // consumers: push or last producer finished
  WaitList space_waiters_;  // producers: pop
};

/// Static description of one task of a fragment.
struct TaskSpec {
  std::string query_id;
  int fragment_id = 0;
  int task_index = 0;
  int num_tasks = 1;            // tasks in this fragment
  int consumer_partitions = 1;  // task count of the consumer fragment
  int worker_id = 0;
  /// Incarnation of this (fragment, task) slot (ISSUE 7): 0 for the
  /// original attempt, +1 for every recovery re-creation. A create request
  /// with a higher generation supersedes the worker's existing entry; its
  /// output buffers and status streams are stamped with the generation so
  /// consumers never mix frames across incarnations.
  int generation = 0;
  /// Producer task counts per source fragment (for RemoteSource readers).
  std::map<int, int> source_task_counts;
};

/// Task-scoped kill switch (ISSUE 7): aborts one task without killing the
/// per-query memory context that other tasks of the same query share on
/// the same worker — required when a single task is superseded by a
/// recovery re-creation while its siblings keep running.
class TaskKillSwitch {
 public:
  /// Kills the task and wakes every driver registered with OnKill, so a
  /// parked driver observes the kill at once.
  void Kill(const Status& reason) {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (killed_.load()) return;  // first reason wins
      reason_ = reason;
      killed_.store(true);
      wake = kill_waiters_.Take();
    }
    FireAll(wake);
  }
  /// Registers a driver to wake on Kill (a no-op once killed).
  void OnKill(const WakeupPtr& waiter) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!killed_.load()) kill_waiters_.Add(waiter);
  }
  bool killed() const { return killed_.load(); }
  Status reason() const {
    std::lock_guard<std::mutex> lock(mu_);
    return killed_.load() ? reason_ : Status::OK();
  }

 private:
  std::atomic<bool> killed_{false};
  mutable std::mutex mu_;
  Status reason_;
  WaitList kill_waiters_;
};

/// Shared services every operator of a task can reach.
struct TaskRuntime {
  QueryMemory* query_memory = nullptr;
  WorkerMemory* worker_memory = nullptr;
  ExchangeManager* exchange = nullptr;
  const Catalog* catalog = nullptr;
  EvalMode eval_mode = EvalMode::kCompiled;
  int64_t exchange_buffer_bytes = 4 << 20;
  /// Driver instances per parallelizable pipeline (intra-node parallelism,
  /// §IV-C4).
  int max_drivers_per_pipeline = 2;
  /// Per-scan-node split queues (a co-located join has two scans in one
  /// task); owned by the TaskExec. Keyed by TableScanNode id.
  std::map<int, SplitQueue>* split_queues = nullptr;
  ResultQueue* results = nullptr;           // root fragment only
  /// Number of round-robin output partitions currently accepting data
  /// (adaptive writer scaling, §IV-E3); null when not applicable.
  std::atomic<int>* active_output_partitions = nullptr;
  /// Aggregate CPU nanoseconds consumed by this task (MLFQ input).
  std::atomic<int64_t>* task_cpu_nanos = nullptr;
  /// Per-query trace recorder, or null when tracing is off. Raw pointer:
  /// the QueryExecution holds the owning lifecycle alive past every task.
  TraceRecorder* trace = nullptr;
  /// Task-scoped kill switch owned by the TaskExec; null in contexts that
  /// predate task construction (e.g. the reference executor).
  const TaskKillSwitch* task_kill = nullptr;
};

/// Per-operator context: memory accounting against the worker pools plus
/// basic stats. SetMemoryUsage is diff-based: operators report their total
/// retained bytes and the context reconciles with the pools.
class OperatorContext {
 public:
  OperatorContext(TaskRuntime runtime, TaskSpec spec, std::string label,
                  int plan_node_id = -1, int pipeline_id = 0)
      : runtime_(runtime),
        spec_(std::move(spec)),
        label_(std::move(label)),
        plan_node_id_(plan_node_id),
        pipeline_id_(pipeline_id) {}

  ~OperatorContext() { (void)SetMemoryUsage(0, /*user=*/true); }

  const TaskRuntime& runtime() const { return runtime_; }
  const TaskSpec& spec() const { return spec_; }

  /// Wake-up handle of the driver running this operator (null outside a
  /// driver). A blocked operator hands it to what it waits on.
  const WakeupPtr& wakeup() const { return wakeup_; }
  void set_wakeup(WakeupPtr wakeup) { wakeup_ = std::move(wakeup); }
  /// Asks for the driver to be re-run no later than `deadline` should it
  /// block in the current run (waits with a known end and no event).
  void WakeAt(std::chrono::steady_clock::time_point deadline) {
    if (wakeup_ != nullptr) wakeup_->WakeAt(deadline);
  }
  const std::string& label() const { return label_; }
  int plan_node_id() const { return plan_node_id_; }
  int pipeline_id() const { return pipeline_id_; }

  /// Updates this operator's retained user-memory footprint.
  Status SetMemoryUsage(int64_t bytes, bool user = true) {
    if (runtime_.worker_memory == nullptr ||
        runtime_.query_memory == nullptr) {
      return Status::OK();
    }
    int64_t delta = bytes - current_bytes_;
    if (delta > 0) {
      PRESTO_RETURN_IF_ERROR(runtime_.worker_memory->Reserve(
          runtime_.query_memory, delta, user));
    } else if (delta < 0) {
      runtime_.worker_memory->Release(runtime_.query_memory, -delta, user);
    }
    // Reserve may revoke this very operator (self-revocation on the same
    // thread through the recursive revoke lock), which re-enters
    // SetMemoryUsage(0) and resets current_bytes_. Apply the delta to the
    // post-reservation value instead of overwriting with `bytes`, so the
    // pool balance always equals current_bytes_.
    current_bytes_ += delta;
    if (bytes > peak_memory_bytes.load(std::memory_order_relaxed)) {
      peak_memory_bytes.store(bytes, std::memory_order_relaxed);
    }
    return Status::OK();
  }

  /// Fails fast when the query — or just this task — was killed elsewhere.
  Status CheckNotKilled() const {
    if (runtime_.query_memory != nullptr && runtime_.query_memory->killed()) {
      return runtime_.query_memory->kill_reason();
    }
    if (runtime_.task_kill != nullptr && runtime_.task_kill->killed()) {
      return runtime_.task_kill->reason();
    }
    return Status::OK();
  }

  /// Reads the counters into an immutable snapshot. Safe to call while the
  /// operator runs; each counter is individually consistent.
  OperatorStats StatsSnapshot() const {
    OperatorStats stats;
    stats.label = label_;
    stats.plan_node_id = plan_node_id_;
    stats.pipeline_id = pipeline_id_;
    stats.fragment_id = spec_.fragment_id;
    stats.instances = 1;
    stats.input_rows = rows_in.load();
    stats.input_pages = input_pages.load();
    stats.input_bytes = input_bytes.load();
    stats.output_rows = rows_out.load();
    stats.output_pages = output_pages.load();
    stats.output_bytes = output_bytes.load();
    stats.add_input_nanos = add_input_nanos.load();
    stats.get_output_nanos = get_output_nanos.load();
    stats.blocked_nanos = blocked_nanos.load();
    stats.queued_nanos = queued_nanos.load();
    stats.peak_memory_bytes = peak_memory_bytes.load();
    stats.spilled_bytes = spilled_bytes.load();
    stats.serde_nanos = serde_nanos.load();
    return stats;
  }

  // Stats: rows are counted by the operators themselves; pages, bytes, and
  // call timings are maintained centrally by the Driver loop.
  std::atomic<int64_t> rows_in{0};
  std::atomic<int64_t> rows_out{0};
  std::atomic<int64_t> input_pages{0};
  std::atomic<int64_t> input_bytes{0};
  std::atomic<int64_t> output_pages{0};
  std::atomic<int64_t> output_bytes{0};
  std::atomic<int64_t> add_input_nanos{0};
  std::atomic<int64_t> get_output_nanos{0};
  std::atomic<int64_t> blocked_nanos{0};
  /// Runnable-but-waiting time in the executor queue (charged by the
  /// executor to the pipeline's sink operator).
  std::atomic<int64_t> queued_nanos{0};
  std::atomic<int64_t> peak_memory_bytes{0};
  std::atomic<int64_t> spilled_bytes{0};
  /// CPU time spent serializing/deserializing wire frames (exchange sinks
  /// and sources) or spill files.
  std::atomic<int64_t> serde_nanos{0};

 private:
  TaskRuntime runtime_;
  TaskSpec spec_;
  std::string label_;
  int plan_node_id_;
  int pipeline_id_;
  int64_t current_bytes_ = 0;
  WakeupPtr wakeup_;
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_EXEC_CONTEXT_H_
