#ifndef PRESTOCPP_SCHEDULE_COORDINATOR_H_
#define PRESTOCPP_SCHEDULE_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "connector/connector.h"
#include "exec/task.h"
#include "fragment/fragmenter.h"
#include "schedule/cluster.h"
#include "schedule/speculation.h"
#include "schedule/task_recovery.h"
#include "stats/metrics_registry.h"
#include "stats/query_stats.h"
#include "worker/task_client.h"

namespace presto {

class MetadataManager;

/// Shortest-queue split assignment (§IV-D3) restricted to tasks whose
/// worker is alive and which actually own a split queue for `node_id`.
/// Errors when no candidate exists — the pre-ISSUE-7 code silently fell
/// back to task index 0 then, quietly feeding splits to a task that could
/// be sitting on a dead worker.
Result<int> ChooseSplitTarget(
    const std::vector<std::shared_ptr<TaskClient>>& tasks, int node_id);

/// A running (or finished) distributed query: owns the per-fragment task
/// clients, the lazy split-scheduling thread, the writer-scaling monitor,
/// and the client-facing result stream.
class QueryExecution {
 public:
  ~QueryExecution();

  const std::string& query_id() const { return query_id_; }
  const RowSchema& schema() const { return schema_; }
  ResultQueue& results() { return results_; }
  QueryMemory& memory() { return *memory_; }

  /// Blocks until every task completed; returns the query's final status.
  Status Wait();

  /// Kills the query (client cancellation, internal error, or abandonment).
  /// Callable from any thread any number of times; only the first call's
  /// reason takes effect.
  void Cancel(const Status& reason);

  /// Total CPU nanoseconds consumed across all tasks.
  int64_t total_cpu_nanos() const;

  /// Current number of active writer partitions (adaptive scaling).
  int active_writers(int fragment) const;

  /// The fragmented plan this execution runs (for EXPLAIN ANALYZE).
  const FragmentedPlan& plan() const { return plan_; }

  /// Aggregates per-operator runtime stats across every task. Safe while
  /// the query runs (counters are atomics); exact once it finished.
  QueryStats StatsSnapshot() const;

  /// Live per-slot progress from the status caches (ISSUE 10): the
  /// /v1/query/{id} "taskProgress" payload. Safe to call at any time.
  std::vector<TaskProgress> TaskProgressSnapshot() const;

 private:
  friend class Coordinator;
  QueryExecution() = default;

  void SplitSchedulingLoop();
  /// Terminal-status callback for task slot (fragment, task). `generation`
  /// identifies the incarnation that completed: a callback from a
  /// superseded incarnation only settles its accounting, while a
  /// current-generation worker-loss failure is absorbed into a recovery
  /// request instead of failing the query (ISSUE 7).
  void OnTaskDone(int fragment, int task, int generation,
                  const Status& status);
  /// Best-effort cancel RPC to every task (no-op clients ignore it).
  /// Snapshots the client vector under tasks_mu_, then calls outside it.
  void AbortAllTasks();
  /// Liveness death listener (kProcess with retries): queues a recovery
  /// request for every unfinished slot placed on `worker`.
  void OnWorkerDeath(int worker);
  /// Recovery-thread handler for one queued request: computes the restart
  /// closure, re-places the dead worker's slots on live workers, launches
  /// generation+1 replacements, and replays their journaled splits — or
  /// fails the query cleanly when retries are exhausted, no live worker
  /// remains, or a non-replayable stage (result frames already delivered
  /// to the client) is involved.
  void RunRecovery(const RecoveryRequest& request);
  /// Builds the HTTP client + create request for slot (fragment, task)
  /// from the current placement_/generations_ tables. Caller holds
  /// tasks_mu_ (or is single-threaded pre-launch inside Execute()).
  std::shared_ptr<TaskClient> MakeRemoteClientLocked(int fragment, int task);
  /// Same, but for an explicit worker and generation (speculative replicas
  /// run at generation+1 on a worker the placement table does not know
  /// about until the replica is promoted). Caller holds tasks_mu_.
  std::shared_ptr<TaskClient> MakeRemoteClientForLocked(int fragment,
                                                        int task, int worker,
                                                        int generation);
  /// SpeculationManager tick (ISSUE 9): samples every slot's progress from
  /// the status caches, picks stragglers via PickStragglers, and races a
  /// higher-generation replica on a different live worker against each.
  void SpeculationTick();
  /// Speculation-thread handler for a replica that finished first: decides
  /// promotion (the replica becomes the slot's incarnation, consumers of
  /// its fragment restart like a recovery round, the original is aborted
  /// kCancelled) or abandonment (results already delivered / recovery owns
  /// the slot — the replica is aborted and the original keeps running).
  void RunPromotion(int fragment, int task, int generation);
  /// Settles every speculative replica during query failure/teardown:
  /// aborts it, parks its client in superseded_clients_, and discharges a
  /// won-replica's held completion. Caller holds mu_ and tasks_mu_.
  void DischargeSpeculationLocked();
  /// The shared tail of OnTaskDone/RunRecovery under mu_: finishes the
  /// stream and finalizes once remaining_tasks_ drained to zero.
  void FinishIfDrainedLocked();
  /// Converts every absorbed recovery hold back into a completed-task
  /// decrement (the query is failing; no replacement will consume them).
  /// Caller holds mu_ and tasks_mu_.
  void DischargeRecoveryHoldsLocked();
  /// kProcess only: pulls the root task's output buffer over the exchange
  /// protocol into results_, finishing the stream when the buffer
  /// completes (and aborting still-running upstream producers, e.g. after
  /// LIMIT).
  void ResultFetchLoop();
  /// One-shot end-of-query teardown under mu_: releases every task's
  /// resources (coordinator- and worker-side), drops this query's exchange
  /// state, finalizes the lifecycle record, and frees the admission slot.
  void FinalizeLocked();
  /// Run by the result-fetch thread on exit: performs the finalization the
  /// last OnTaskDone deferred so the root output buffer outlived its drain.
  void FinalizeIfDeferred();

  std::string query_id_;
  RowSchema schema_;
  Cluster* cluster_ = nullptr;
  const Catalog* catalog_ = nullptr;
  // Optional split-enumeration cache (ISSUE 8); null when the coordinator
  // is driven without an engine (direct tests).
  MetadataManager* metadata_manager_ = nullptr;
  FragmentedPlan plan_;
  std::unique_ptr<QueryMemory> memory_;
  ResultQueue results_;
  // tasks_[fragment][task_index]; DirectTaskClient in kThreads mode,
  // HttpTaskClient in kProcess mode. The vector shape is immutable once
  // launched; individual elements are swapped by recovery under tasks_mu_.
  std::vector<std::vector<std::shared_ptr<TaskClient>>> tasks_;
  // Round-robin writer-scaling state per fragment (producer side).
  std::vector<std::unique_ptr<std::atomic<int>>> active_writers_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  int remaining_tasks_ = 0;
  std::vector<int> fragment_remaining_;
  std::vector<bool> fragment_done_;
  Status final_status_;
  bool finished_ = false;
  /// kProcess: set when the last task completed successfully but the
  /// result-fetch thread had not yet drained the root output buffer; that
  /// thread then owns finishing the stream and running FinalizeLocked().
  bool defer_finalize_ = false;
  bool finalized_ = false;
  /// Set (under mu_) once Execute()'s initial launch loop has issued every
  /// gen-0 Launch. RunRecovery() blocks on it: a create that fails
  /// synchronously mid-loop (worker died before the query started) would
  /// otherwise let the recovery thread swap replacement clients into
  /// tasks_ while the loop is still walking it — and the loop would then
  /// Launch an already-launched replacement a second time.
  bool launch_complete_ = false;

  std::thread split_thread_;
  std::atomic<bool> stop_split_thread_{false};
  std::function<void()> on_complete_;  // admission-slot release
  /// True once every task is registered with an executor (i.e. OnTaskDone
  /// callbacks will eventually fire). A failed Execute() tears down an
  /// unlaunched execution, and waiting for callbacks then would hang.
  bool launched_ = false;
  /// Makes Cancel() exactly-once across client cancel, internal errors,
  /// and destructor abandonment racing each other.
  std::once_flag cancel_once_;

  /// Out-of-process execution state (ISSUE 6).
  bool process_mode_ = false;
  int root_fetch_port_ = -1;
  std::thread result_fetch_thread_;
  std::atomic<bool> stop_fetch_thread_{false};

  /// ---- Task recovery on worker death (ISSUE 7; kProcess only). ----
  /// Guards the slot tables below plus the elements of tasks_. Lock order:
  /// mu_ before tasks_mu_ before fetch_mu_; never the reverse.
  mutable std::mutex tasks_mu_;
  bool recovery_enabled_ = false;
  int max_task_retries_ = 0;
  /// Serialized fragments + scheduling tables kept so a replacement task's
  /// create request can be rebuilt at any time.
  std::vector<Json> fragment_jsons_;
  std::vector<int> task_counts_;
  std::vector<std::vector<int>> placement_;    // [fragment][task] -> worker
  std::vector<std::vector<int>> generations_;  // current incarnation
  std::vector<std::vector<int>> retry_counts_; // dead-worker restarts only
  std::vector<std::vector<bool>> slot_finished_;
  /// Slot whose terminal callback was absorbed into a pending recovery
  /// request: remaining_tasks_ still counts it (the "hold") until a
  /// recovery round launches its replacement or fails the query.
  std::vector<std::vector<bool>> slot_recovering_;
  /// Split-assignment journal: everything ever routed to a slot, replayed
  /// verbatim into its replacement. Connector pointers outlive the query
  /// (catalog-owned).
  struct SlotJournal {
    std::map<int, std::vector<std::pair<SplitPtr, Connector*>>> splits;
  };
  std::vector<std::vector<SlotJournal>> journal_;
  std::vector<std::set<int>> no_more_splits_;  // per fragment: closed nodes
  /// Clients replaced by recovery, kept alive until the execution is
  /// destroyed: destroying an HttpTaskClient joins its poll thread, and
  /// that thread may be blocked on mu_ delivering the stale callback (so
  /// freeing inside the recovery round would deadlock) or may itself be
  /// the thread running FinalizeLocked() (a self-join). Only
  /// ~QueryExecution — a waiter thread, after every callback settled —
  /// may free them. Guarded by tasks_mu_.
  std::vector<std::shared_ptr<TaskClient>> superseded_clients_;
  /// Parks the split-scheduling loop while a recovery round swaps clients
  /// and replays journals.
  std::atomic<bool> recovery_pause_{false};
  /// Ends a recovery round's pause and wakes the split loop waiting on it.
  void EndRecoveryPause() {
    recovery_pause_.store(false);
    done_cv_.notify_all();
  }
  /// Sleeps the split loop (on done_cv_) until a task completes, a recovery
  /// round ends, the query ends, or `max_wait` passes.
  void WaitSplitLoop(std::chrono::microseconds max_wait);
  std::unique_ptr<TaskRecoveryManager> recovery_;
  int liveness_listener_ = -1;
  Counter* retries_counter_ = nullptr;        // presto_task_retries_total
  Histogram* recovery_histogram_ = nullptr;   // recovery latency, seconds

  /// ---- Speculative execution of stragglers (ISSUE 9; kProcess only). ----
  /// One active replica racing a slot's current incarnation. Guarded by
  /// tasks_mu_. Every registry entry holds +1 in remaining_tasks_ (the
  /// replica's own terminal callback), so the registry is provably empty
  /// by the time FinalizeLocked() runs.
  struct SpecReplica {
    int generation = 0;   // original generation + 1 at launch time
    int worker = -1;      // never equal to placement_[fragment][task]
    /// Journal replayed into the replica; the split loop may forward live
    /// deliveries only afterwards (pre-replay splits reach the replica via
    /// the journal — forwarding earlier would deliver them twice).
    bool replayed = false;
    /// The replica finished OK and its callback is held until RunPromotion
    /// decides commit-vs-abandon (mirrors the recovery holds).
    bool won = false;
    std::shared_ptr<TaskClient> client;
  };
  std::map<std::pair<int, int>, SpecReplica> spec_replicas_;
  /// Slots ever speculated this query — never two replicas of one task.
  std::set<std::pair<int, int>> speculated_;
  bool speculation_enabled_ = false;
  SpeculationPolicy speculation_policy_;
  std::unique_ptr<SpeculationManager> speculation_;
  Counter* speculations_counter_ = nullptr;  // presto_task_speculations_total
  Counter* wins_counter_ = nullptr;          // presto_speculation_wins_total

  /// Cross-process trace shipping instruments (ISSUE 10), indexed by
  /// worker id: spans merged from / dropped by each worker's recorder.
  /// Empty when the engine did not install them.
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;

  /// Root result-stream epoch: the fetch loop rebinds its exchange client
  /// whenever recovery moved the root task. root_frames_consumed_ counts
  /// frames already delivered to the client under the current epoch — a
  /// root restart is only legal while it is zero (otherwise replayed
  /// frames would duplicate delivered rows, so the query fails cleanly).
  std::mutex fetch_mu_;
  int root_epoch_ = 0;
  int root_fetch_generation_ = 0;
  int64_t root_frames_consumed_ = 0;

  /// Lifecycle record finalized when the last task completes; may be null
  /// (tests that drive the coordinator directly).
  std::shared_ptr<QueryLifecycle> lifecycle_;
  std::atomic<bool> client_cancelled_{false};
};

/// The coordinator (§III): admits queries, places fragment tasks on
/// workers, feeds splits lazily with shortest-queue assignment (§IV-D3),
/// honors phased scheduling dependencies (§IV-D1), and scales writer stages
/// adaptively (§IV-E3). In ClusterMode::kProcess the same scheduling logic
/// drives remote worker daemons through the /v1/task HTTP protocol.
class Coordinator {
 public:
  Coordinator(Cluster* cluster, const Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Starts executing a fragmented plan; blocks only for admission. The
  /// optional lifecycle is transitioned through admission/running and
  /// finalized when the last task completes.
  Result<std::shared_ptr<QueryExecution>> Execute(
      const std::string& query_id, FragmentedPlan plan,
      std::shared_ptr<QueryLifecycle> lifecycle = nullptr);

  /// Installs the recovery observability instruments (ISSUE 7): the
  /// presto_task_retries_total counter and the recovery-latency histogram,
  /// both registry-owned and outliving the coordinator. Either may be
  /// null (tests that drive the coordinator directly).
  void SetRecoveryInstruments(Counter* retries, Histogram* latency) {
    retries_counter_ = retries;
    recovery_histogram_ = latency;
  }

  /// Installs the speculation observability instruments (ISSUE 9):
  /// presto_task_speculations_total and presto_speculation_wins_total.
  /// Either may be null (tests that drive the coordinator directly).
  void SetSpeculationInstruments(Counter* speculations, Counter* wins) {
    speculations_counter_ = speculations;
    speculation_wins_counter_ = wins;
  }

  /// Installs the cross-process trace-shipping instruments (ISSUE 10),
  /// indexed by worker id: presto_trace_shipped_spans_total and
  /// presto_trace_dropped_spans_total, labeled {worker="w<i>"}. Registry-
  /// owned; empty vectors are fine (tests that drive the coordinator
  /// directly).
  void SetTraceShippingInstruments(std::vector<Counter*> shipped,
                                   std::vector<Counter*> dropped) {
    trace_shipped_counters_ = std::move(shipped);
    trace_dropped_counters_ = std::move(dropped);
  }

  /// Installs the planning-path cache subsystem (ISSUE 8): split
  /// enumeration then goes through the manager's split cache. May be null
  /// (tests that drive the coordinator directly enumerate uncached).
  void SetMetadataManager(MetadataManager* manager) {
    metadata_manager_ = manager;
  }

  int running_queries() const {
    std::lock_guard<std::mutex> lock(admission_mu_);
    return running_;
  }

  /// Queries waiting for an admission slot right now.
  int queued_queries() const { return queued_.load(); }

 private:
  Cluster* cluster_;
  const Catalog* catalog_;
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int running_ = 0;
  std::atomic<int> queued_{0};
  // Best-effort placement cursor for single-task fragments; relaxed atomic
  // because concurrent Execute() calls may interleave and exact rotation
  // does not matter, only rough spread.
  std::atomic<int> round_robin_worker_{0};
  Counter* retries_counter_ = nullptr;
  Histogram* recovery_histogram_ = nullptr;
  Counter* speculations_counter_ = nullptr;
  Counter* speculation_wins_counter_ = nullptr;
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;
  MetadataManager* metadata_manager_ = nullptr;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_COORDINATOR_H_
