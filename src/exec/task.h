#ifndef PRESTOCPP_EXEC_TASK_H_
#define PRESTOCPP_EXEC_TASK_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "exec/driver.h"
#include "exec/exec_context.h"
#include "fragment/fragmenter.h"

namespace presto {

/// A single processing unit of a stage running on one worker (§IV-D): it
/// instantiates the fragment's operator tree as pipelines of drivers.
/// Pipelines split at hash-join build sides (Fig. 4), at UNION ALL inputs,
/// and — for intra-node parallelism (§IV-C4) — between parallelizable scan
/// sections and single-driver operators (final aggregation, sort, window),
/// joined by local in-memory shuffles.
class TaskExec {
 public:
  TaskExec(TaskSpec spec, TaskRuntime runtime, const PlanFragment* fragment);

  /// Builds pipelines and drivers. Must be called once before execution.
  Status Initialize();

  const TaskSpec& spec() const { return spec_; }
  TaskRuntime& runtime() { return runtime_; }
  /// Split queue for a TableScanNode of this fragment (by node id).
  SplitQueue* splits(int scan_node_id) {
    auto it = split_queues_.find(scan_node_id);
    return it == split_queues_.end() ? nullptr : &it->second;
  }
  std::map<int, SplitQueue>& split_queues() { return split_queues_; }
  std::atomic<int64_t>& cpu_nanos() { return cpu_nanos_; }

  std::vector<std::unique_ptr<Driver>>& drivers() { return drivers_; }

  bool AllDriversFinished() const;

  int num_pipelines() const { return num_pipelines_; }

  /// Snapshots the runtime stats of every operator, merged per pipeline
  /// across parallel driver instances. Safe while the task runs; after
  /// ReleaseDrivers it returns the cached final snapshot.
  TaskStats CollectStats() const;

  /// Destroys all drivers (and through their operator contexts releases
  /// every memory reservation, exchange-buffer reference, and spill file),
  /// caching a final stats snapshot first so EXPLAIN ANALYZE still works.
  /// Must only be called once no executor references the drivers — i.e.
  /// after the task's on_done callback fired. Idempotent.
  void ReleaseDrivers();

  /// Aborts this task alone: drivers observe the kill through
  /// OperatorContext::CheckNotKilled on their next quantum. Unlike
  /// QueryMemory::Kill this does not touch sibling tasks of the same query
  /// on this worker (needed when one task is superseded by a recovery
  /// re-creation, ISSUE 7).
  void Kill(const Status& reason) { kill_switch_.Kill(reason); }
  const TaskKillSwitch& kill_switch() const { return kill_switch_; }
  TaskKillSwitch& kill_switch() { return kill_switch_; }

 private:
  using OperatorFactory = std::function<std::unique_ptr<Operator>()>;

  struct PipelineBuild {
    std::vector<OperatorFactory> factories;
    bool parallel_safe = true;
    bool has_scan = false;
  };

  std::unique_ptr<OperatorContext> MakeContext(const std::string& label,
                                               int plan_node_id = -1);
  TaskStats CollectStatsLocked() const;
  Status BuildPipeline(const PlanNodePtr& node, PipelineBuild* current);
  void FinishPipeline(PipelineBuild build, bool is_root);

  TaskSpec spec_;
  TaskRuntime runtime_;
  TaskKillSwitch kill_switch_;
  const PlanFragment* fragment_;
  std::map<int, SplitQueue> split_queues_;
  std::atomic<int64_t> cpu_nanos_{0};
  std::vector<std::unique_ptr<Driver>> drivers_;
  /// Serializes CollectStats against ReleaseDrivers (a stats poll must not
  /// walk operators while they are being destroyed).
  mutable std::mutex stats_mu_;
  std::optional<TaskStats> final_stats_;
  int num_pipelines_ = 0;
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_TASK_H_
