#include "schedule/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>

#include "common/stopwatch.h"
#include "metadata/metadata_manager.h"
#include "plan/plan_serde.h"

namespace presto {

namespace {

// Collects the TableScanNodes of a fragment (by node id).
void CollectScans(const PlanNodePtr& node,
                  std::vector<std::shared_ptr<const TableScanNode>>* out) {
  if (node->kind() == PlanNodeKind::kTableScan) {
    out->push_back(std::static_pointer_cast<const TableScanNode>(node));
  }
  for (const auto& c : node->children()) CollectScans(c, out);
}

bool ContainsTableWrite(const PlanNodePtr& node) {
  if (node->kind() == PlanNodeKind::kTableWrite) return true;
  for (const auto& c : node->children()) {
    if (ContainsTableWrite(c)) return true;
  }
  return false;
}

}  // namespace

Result<int> ChooseSplitTarget(
    const std::vector<std::shared_ptr<TaskClient>>& tasks, int node_id) {
  // Shortest queue among alive candidates; a task that has not reported a
  // queue depth yet (a remote task whose first status is still in flight)
  // only serves as a fallback so startup does not stall.
  int fallback = -1;
  int best = -1;
  size_t best_size = SIZE_MAX;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!tasks[t]->worker_alive()) continue;
    if (fallback < 0) fallback = static_cast<int>(t);
    auto size = tasks[t]->SplitQueueSize(node_id);
    if (size.has_value() && *size < best_size) {
      best_size = *size;
      best = static_cast<int>(t);
    }
  }
  if (best >= 0) return best;
  if (fallback >= 0) return fallback;
  return Status::IOError(
      "no task with a live worker to take splits of scan node " +
      std::to_string(node_id));
}

QueryExecution::~QueryExecution() {
  // Detach from the failure detector before anything else: a death
  // callback delivered mid-teardown would walk members being destroyed.
  // RemoveDeathListener blocks until an in-flight callback returns.
  if (liveness_listener_ >= 0 && cluster_ != nullptr) {
    cluster_->liveness().RemoveDeathListener(liveness_listener_);
  }
  // Tear down any still-running tasks (client abandoned the query) and wait
  // for them: executor callbacks and operators reference our members. Only
  // a launched execution may wait — if Execute() failed before registering
  // the tasks, no callback will ever fire and Wait() would hang.
  if (launched_) {
    bool running;
    {
      std::lock_guard<std::mutex> lock(mu_);
      running = remaining_tasks_ > 0;
    }
    if (running) Cancel(Status::Cancelled("query abandoned"));
    (void)Wait();
  }
  // Wait() needed the recovery thread alive (it discharges accounting
  // holds); stop it only now, before members it touches are destroyed. If
  // Execute() bailed before completing its launch loop, release the
  // launch gate first so a queued RunRecovery cannot block Stop() forever.
  {
    std::lock_guard<std::mutex> lock(mu_);
    launch_complete_ = true;
  }
  done_cv_.notify_all();
  if (recovery_ != nullptr) recovery_->Stop();
  // Same for the speculation thread: Wait() may have needed a queued
  // promotion to discharge a won replica's held callback.
  if (speculation_ != nullptr) speculation_->Stop();
  stop_split_thread_.store(true);
  done_cv_.notify_all();  // cut a split-loop wait short
  if (split_thread_.joinable()) split_thread_.join();
  stop_fetch_thread_.store(true);
  if (result_fetch_thread_.joinable()) result_fetch_thread_.join();
  if (cluster_ != nullptr) {
    // Backstop only: normal finalization (OnTaskDone on the last task)
    // already removed this query's exchange state. RemoveQuery is
    // idempotent, and unlaunched executions still need the cleanup.
    cluster_->exchange().RemoveQuery(query_id_);
  }
  // Execute() can fail after admission but before launch (no live workers,
  // fragment serialization, task Initialize); no task callback will ever
  // reach FinalizeLocked() then, so the admission slot must be released
  // here or repeated failures wedge max_concurrent_queries. For launched
  // executions Wait() + the thread joins above guarantee finalization
  // already ran (and cleared on_complete_), making this a no-op.
  std::function<void()> release_slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!finalized_ && on_complete_) {
      release_slot = std::move(on_complete_);
      on_complete_ = nullptr;
    }
  }
  if (release_slot) release_slot();
}

Status QueryExecution::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_tasks_ == 0; });
  return final_status_;
}

void QueryExecution::Cancel(const Status& reason) {
  // Client cancel, an internal error, and destructor abandonment can race;
  // the latch makes teardown exactly-once with the first reason winning.
  std::call_once(cancel_once_, [this, &reason] {
    if (reason.code() == StatusCode::kCancelled) {
      client_cancelled_.store(true);
    }
    memory_->Kill(reason);
    results_.Finish(reason);
    done_cv_.notify_all();  // cut a split-loop wait short
    // Remote tasks share no memory context with the coordinator, so the
    // kill must travel over the wire.
    if (process_mode_) AbortAllTasks();
  });
}

void QueryExecution::WaitSplitLoop(std::chrono::microseconds max_wait) {
  std::unique_lock<std::mutex> lock(mu_);
  if (remaining_tasks_ == 0 || stop_split_thread_.load() ||
      memory_->killed()) {
    return;
  }
  // No predicate: any notify (a task settling, a recovery round ending)
  // is a reason to look at the splits again.
  done_cv_.wait_for(lock, max_wait);
}

void QueryExecution::AbortAllTasks() {
  std::vector<std::shared_ptr<TaskClient>> snapshot;
  {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    for (auto& fragment_tasks : tasks_) {
      for (auto& task : fragment_tasks) snapshot.push_back(task);
    }
    // Speculative replicas race outside tasks_ but must die with the query.
    for (auto& [slot, replica] : spec_replicas_) {
      snapshot.push_back(replica.client);
    }
  }
  for (auto& task : snapshot) task->Abort();
}

std::vector<TaskProgress> QueryExecution::TaskProgressSnapshot() const {
  std::vector<TaskProgress> progress;
  std::lock_guard<std::mutex> tlock(tasks_mu_);
  for (size_t f = 0; f < tasks_.size(); ++f) {
    for (size_t t = 0; t < tasks_[f].size(); ++t) {
      const std::shared_ptr<TaskClient>& task = tasks_[f][t];
      if (task == nullptr) continue;
      TaskProgress entry;
      entry.fragment_id = static_cast<int>(f);
      entry.task_index = static_cast<int>(t);
      if (f < placement_.size() && t < placement_[f].size()) {
        entry.worker = placement_[f][t];
      }
      if (f < generations_.size() && t < generations_[f].size()) {
        entry.generation = generations_[f][t];
      }
      // Leaf locks (the client's status cache); safe under tasks_mu_.
      entry.rows_out = task->rows_out();
      entry.progress_age_micros = task->progress_age_micros();
      progress.push_back(entry);
    }
  }
  return progress;
}

QueryStats QueryExecution::StatsSnapshot() const {
  std::vector<std::shared_ptr<TaskClient>> snapshot;
  {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    for (const auto& fragment_tasks : tasks_) {
      for (const auto& task : fragment_tasks) snapshot.push_back(task);
    }
  }
  std::vector<TaskStats> task_stats;
  int64_t peak = memory_->peak_user();
  for (const auto& task : snapshot) {
    task_stats.push_back(task->CollectStats());
    peak = std::max(peak, task->peak_user_memory_bytes());
  }
  return BuildQueryStats(std::move(task_stats), peak);
}

int64_t QueryExecution::total_cpu_nanos() const {
  std::lock_guard<std::mutex> tlock(tasks_mu_);
  int64_t total = 0;
  for (const auto& fragment_tasks : tasks_) {
    for (const auto& task : fragment_tasks) {
      total += task->cpu_nanos();
    }
  }
  return total;
}

int QueryExecution::active_writers(int fragment) const {
  if (fragment < 0 ||
      static_cast<size_t>(fragment) >= active_writers_.size()) {
    return -1;
  }
  const auto& counter = active_writers_[static_cast<size_t>(fragment)];
  return counter == nullptr ? -1 : counter->load();
}

void QueryExecution::OnTaskDone(int fragment, int task, int generation,
                                const Status& status) {
  // NOTE: once remaining_tasks_ hits zero, a waiter in Wait() may destroy
  // this object — and the engine around it — the moment mu_ is released, so
  // ALL finalization (resource release, exchange cleanup, lifecycle, the
  // admission-slot callback) must complete under the lock; a waiter cannot
  // wake before the unlock. Touch no members after the scope ends.
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t f = static_cast<size_t>(fragment);
    size_t t = static_cast<size_t>(task);
    if (recovery_enabled_) {
      bool stale = false;
      bool absorbed = false;
      bool replica_won = false;
      bool replica_lost = false;
      std::shared_ptr<TaskClient> losing_replica;
      {
        std::lock_guard<std::mutex> tlock(tasks_mu_);
        auto rit = spec_replicas_.find({fragment, task});
        if (rit != spec_replicas_.end() &&
            rit->second.generation == generation) {
          // A speculative replica's terminal callback (ISSUE 9). The
          // registry entry — not the generation table — identifies it:
          // replicas run at generations_[f][t]+1 without bumping the table
          // until promotion.
          if (speculation_ != nullptr && status.ok() && !rit->second.won &&
              !slot_finished_[f][t] && !finished_ && !memory_->killed()) {
            // The replica finished first. Hold the callback (no accounting
            // yet, mirroring the recovery holds): the promotion job decides
            // commit-vs-abandon atomically against the result stream and
            // any concurrent recovery round.
            rit->second.won = true;
            replica_won = true;
          } else {
            // Failed, cancelled, or the original beat it: speculation
            // lost. The client is parked like any superseded client (its
            // poll thread may be the very thread delivering this).
            rit->second.client->MarkSuperseded();
            superseded_clients_.push_back(rit->second.client);
            spec_replicas_.erase(rit);
            replica_lost = true;
          }
        } else if (generation != generations_[f][t]) {
          stale = true;
        } else if (!status.ok() && !finished_ && !memory_->killed() &&
                   status.code() != StatusCode::kCancelled &&
                   !slot_recovering_[f][t] && tasks_[f][t]->worker_lost() &&
                   retry_counts_[f][t] < max_task_retries_) {
          // Worker-loss failure with retry budget left: absorb it into a
          // recovery request. The slot keeps its place in remaining_tasks_
          // (the "hold") until the recovery thread launches a replacement
          // or gives up and fails the query.
          slot_recovering_[f][t] = true;
          absorbed = true;
        } else if (status.ok()) {
          slot_finished_[f][t] = true;
          auto ait = spec_replicas_.find({fragment, task});
          if (ait != spec_replicas_.end() && !ait->second.won) {
            // The original out-raced its replica: abort the loser with a
            // task-scoped kCancelled; its callback settles above.
            losing_replica = ait->second.client;
          }
        }
      }
      if (replica_won) {
        QueryExecution* self = this;
        speculation_->Enqueue([self, fragment, task, generation] {
          self->RunPromotion(fragment, task, generation);
        });
        return;
      }
      if (replica_lost) {
        --remaining_tasks_;
        if (lifecycle_ != nullptr && lifecycle_->trace() != nullptr) {
          lifecycle_->trace()->RecordInstant(
              "coordinator", "speculation_lose", 0, 0,
              {{"fragment", std::to_string(fragment)},
               {"task", std::to_string(task)},
               {"generation", std::to_string(generation)}});
        }
        FinishIfDrainedLocked();
        done_cv_.notify_all();
        return;
      }
      if (losing_replica != nullptr) losing_replica->Abort();
      if (stale) {
        // A superseded incarnation settled: the recovery round that
        // replaced it already re-accounted the slot, so only the callback
        // count drops here. Its status — success or failure — is moot.
        --remaining_tasks_;
        FinishIfDrainedLocked();
        done_cv_.notify_all();
        return;
      }
      if (absorbed) {
        recovery_pause_.store(true);
        recovery_->Enqueue({fragment, task, generation, status});
        return;
      }
    }
    --remaining_tasks_;
    --fragment_remaining_[f];
    if (fragment_remaining_[f] == 0) {
      fragment_done_[f] = true;
    }
    if (!status.ok() && !finished_ &&
        status.code() != StatusCode::kCancelled) {
      final_status_ = status;
      finished_ = true;
      results_.Finish(status);
      memory_->Kill(status);
      // Stop the surviving remote tasks too; killing the coordinator-side
      // memory context does not reach them.
      if (process_mode_) AbortAllTasks();
    }
    if (fragment == plan_.root_id && fragment_done_[f] && !finished_ &&
        !process_mode_) {
      // Root produced everything: complete the result stream and tear down
      // any still-running upstream producers (e.g. after LIMIT). In
      // process mode the result-fetch thread finishes the stream instead,
      // once it drained the root task's output buffer.
      finished_ = true;
      results_.Finish(Status::OK());
      memory_->Kill(Status::Cancelled("query completed"));
    }
    FinishIfDrainedLocked();
    done_cv_.notify_all();
  }
}

void QueryExecution::FinishIfDrainedLocked() {
  if (remaining_tasks_ != 0) return;
  if (!finished_ && process_mode_ && final_status_.ok() &&
      !results_.finished()) {
    // A successful out-of-process query: the root task finished, but
    // its output buffer may still hold pages the result-fetch thread
    // has not pulled yet. Finishing the stream (or releasing the
    // worker-side tasks, which drops that buffer) now would lose
    // them, so the fetch thread finishes the stream and runs
    // FinalizeLocked() once the buffer reports complete.
    defer_finalize_ = true;
  } else {
    if (!finished_) {
      finished_ = true;
      results_.Finish(final_status_);
    }
    FinalizeLocked();
  }
}

void QueryExecution::DischargeRecoveryHoldsLocked() {
  for (size_t f = 0; f < slot_recovering_.size(); ++f) {
    for (size_t t = 0; t < slot_recovering_[f].size(); ++t) {
      if (!slot_recovering_[f][t]) continue;
      slot_recovering_[f][t] = false;
      --remaining_tasks_;
      --fragment_remaining_[f];
      if (fragment_remaining_[f] == 0) fragment_done_[f] = true;
    }
  }
}

void QueryExecution::OnWorkerDeath(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || finalized_ || defer_finalize_ || memory_->killed()) {
    return;
  }
  std::lock_guard<std::mutex> tlock(tasks_mu_);
  // Every slot hosted on the dead worker becomes a recovery request —
  // including finished ones, whose retained replay buffers died with the
  // process; RunRecovery prunes the ones nobody still needs.
  for (size_t f = 0; f < placement_.size(); ++f) {
    for (size_t t = 0; t < placement_[f].size(); ++t) {
      if (placement_[f][t] != worker || slot_recovering_[f][t]) continue;
      recovery_pause_.store(true);
      recovery_->Enqueue(
          {static_cast<int>(f), static_cast<int>(t), generations_[f][t],
           Status::IOError("worker " + std::to_string(worker) +
                           " lost: missed heartbeats past liveness "
                           "timeout")});
    }
  }
}

void QueryExecution::RunRecovery(const RecoveryRequest& request) {
  // Enqueuers set the pause too, but the previous request of a multi-slot
  // round cleared it on completion; re-assert it here so the flag is
  // reliably up BEFORE this round swaps any client. Together with the
  // split loop re-checking it under tasks_mu_, that makes the pause a hard
  // barrier: no split can be delivered to a fresh client in the window
  // between the swap and the journal replay (where the replay would then
  // deliver it a second time).
  recovery_pause_.store(true);
  Stopwatch timer;
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  int64_t span_start = trace != nullptr ? trace->NowNanos() : 0;

  struct Replacement {
    int fragment;
    int task;
    int generation;
    std::shared_ptr<TaskClient> client;
  };
  std::vector<Replacement> replacements;
  bool failed_query = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A worker can die while Execute()'s launch loop is still issuing the
    // gen-0 creates; recovering before the loop finishes would mutate
    // tasks_ under its feet (and double-Launch replacements). Wait it out.
    done_cv_.wait(lock, [this] { return launch_complete_; });
    if (finished_ || finalized_ || defer_finalize_ || memory_->killed()) {
      // The query settled (or is settling) — nothing to recover; convert
      // any absorbed holds back into completions so Wait() can drain.
      {
        std::lock_guard<std::mutex> tlock(tasks_mu_);
        DischargeRecoveryHoldsLocked();
        DischargeSpeculationLocked();
      }
      FinishIfDrainedLocked();
      done_cv_.notify_all();
      EndRecoveryPause();
      return;
    }
    Status cause = request.cause;
    std::vector<std::pair<int, int>> restart;
    int dead = -1;
    {
      std::lock_guard<std::mutex> tlock(tasks_mu_);
      size_t rf = static_cast<size_t>(request.fragment);
      size_t rt = static_cast<size_t>(request.task);
      if (request.generation != generations_[rf][rt]) {
        // An earlier round already replaced this incarnation.
        EndRecoveryPause();
        return;
      }
      dead = placement_[rf][rt];
      std::vector<std::vector<int>> inputs_of(plan_.fragments.size());
      for (const auto& fragment : plan_.fragments) {
        inputs_of[static_cast<size_t>(fragment.id)] = fragment.inputs;
      }
      restart = ComputeRestartSet(placement_, slot_finished_, inputs_of,
                                  plan_.root_id, !results_.finished(), dead);
      if (restart.empty()) {
        // Nobody needs the dead worker's output anymore (e.g. LIMIT cut
        // its consumers off). Settle the requesting slot's hold, if any.
        if (slot_recovering_[rf][rt]) {
          slot_recovering_[rf][rt] = false;
          --remaining_tasks_;
          --fragment_remaining_[rf];
          if (fragment_remaining_[rf] == 0) fragment_done_[rf] = true;
        }
      } else {
        // Retry budget: every slot that dies with its worker consumes one
        // retry; closure-collateral restarts on live workers do not.
        for (const auto& [f, t] : restart) {
          if (placement_[static_cast<size_t>(f)][static_cast<size_t>(t)] ==
                  dead &&
              retry_counts_[static_cast<size_t>(f)]
                           [static_cast<size_t>(t)] >= max_task_retries_) {
            failed_query = true;
            break;
          }
        }
        std::vector<int> alive;
        for (int w = 0; w < cluster_->num_workers(); ++w) {
          if (w != dead && cluster_->liveness().IsAlive(w)) {
            alive.push_back(w);
          }
        }
        if (!failed_query && alive.empty()) {
          failed_query = true;
          cause = Status::IOError("no live worker left to host replacement "
                                  "tasks (" + cause.message() + ")");
        }
        bool restarts_root = false;
        for (const auto& [f, t] : restart) {
          if (f == plan_.root_id) restarts_root = true;
        }
        std::unique_lock<std::mutex> flock(fetch_mu_, std::defer_lock);
        if (!failed_query && restarts_root) {
          // May wait for an in-flight result batch to commit its frame
          // count; a batch committed after this lock lands is either
          // counted here or dropped by the fetch loop's epoch check.
          flock.lock();
          if (root_frames_consumed_ > 0) {
            failed_query = true;
            cause = Status::IOError(
                "worker " + std::to_string(dead) + " lost after " +
                std::to_string(root_frames_consumed_) +
                " result frames were already delivered to the client; the "
                "root stage is not replayable (" + cause.message() + ")");
          }
        }
        if (!failed_query) {
          size_t cursor = 0;
          for (const auto& [fi, ti] : restart) {
            size_t f = static_cast<size_t>(fi);
            size_t t = static_cast<size_t>(ti);
            if (placement_[f][t] == dead) {
              // Dead-worker victims move to a live worker; collateral
              // restarts stay put (their worker is fine, only their
              // input streams went stale).
              placement_[f][t] = alive[cursor++ % alive.size()];
              ++retry_counts_[f][t];
            }
            if (auto sit = spec_replicas_.find({fi, ti});
                sit != spec_replicas_.end()) {
              // A replica racing a restarting slot loses: the restart
              // replaces the slot wholesale. Bump the table past the
              // replica's generation first so neither its pending callback
              // nor the replacement can collide with it, and discharge a
              // won replica's held callback (its queued promotion later
              // no-ops on the missing entry).
              generations_[f][t] =
                  std::max(generations_[f][t], sit->second.generation);
              if (sit->second.won) --remaining_tasks_;
              sit->second.client->MarkSuperseded();
              sit->second.client->Abort();
              superseded_clients_.push_back(sit->second.client);
              spec_replicas_.erase(sit);
            }
            ++generations_[f][t];
            if (slot_recovering_[f][t]) {
              // The hold becomes the replacement's outstanding callback.
              slot_recovering_[f][t] = false;
            } else {
              // Still running (its stale callback will subtract later) or
              // finished (its completion was already counted): either way
              // the replacement adds one outstanding callback.
              ++remaining_tasks_;
            }
            if (slot_finished_[f][t]) {
              slot_finished_[f][t] = false;
              ++fragment_remaining_[f];
              fragment_done_[f] = false;
            }
          }
          if (restarts_root) {
            ++root_epoch_;
            size_t root = static_cast<size_t>(plan_.root_id);
            root_fetch_port_ = cluster_->http_port(placement_[root][0]);
            root_fetch_generation_ = generations_[root][0];
          }
          if (flock.owns_lock()) flock.unlock();
          for (const auto& [fi, ti] : restart) {
            size_t f = static_cast<size_t>(fi);
            size_t t = static_cast<size_t>(ti);
            // The old client stays alive until its callback settles, but
            // must never feed splits or writer updates to the worker-side
            // replacement entry that now owns the task id.
            tasks_[f][t]->MarkSuperseded();
            superseded_clients_.push_back(tasks_[f][t]);
            auto fresh = MakeRemoteClientLocked(fi, ti);
            tasks_[f][t] = fresh;
            replacements.push_back({fi, ti, generations_[f][t], fresh});
          }
          if (retries_counter_ != nullptr) {
            retries_counter_->Increment(
                static_cast<int64_t>(replacements.size()));
          }
        }
      }
    }
    if (failed_query) {
      final_status_ = cause;
      finished_ = true;
      results_.Finish(cause);
      memory_->Kill(cause);
      AbortAllTasks();
      {
        std::lock_guard<std::mutex> tlock(tasks_mu_);
        DischargeRecoveryHoldsLocked();
        DischargeSpeculationLocked();
      }
    }
    FinishIfDrainedLocked();
    done_cv_.notify_all();
  }
  if (failed_query || replacements.empty()) {
    EndRecoveryPause();
    return;
  }

  // Launch the replacements (create RPCs) outside every lock: a launch
  // failure re-enters OnTaskDone, which takes mu_.
  std::vector<std::tuple<int, int, int, Status>> launch_failures;
  for (const auto& r : replacements) {
    QueryExecution* raw = this;
    int f = r.fragment;
    int t = r.task;
    int gen = r.generation;
    Status launched = r.client->Launch([raw, f, t, gen](Status status) {
      raw->OnTaskDone(f, t, gen, status);
    });
    if (!launched.ok()) {
      launch_failures.emplace_back(f, t, gen, launched);
    }
  }

  // Replay the journal: every split the dead incarnation (and everything
  // restarted with it) ever received, plus the no-more-splits markers the
  // scheduler already sent. Holding tasks_mu_ keeps the split loop from
  // interleaving fresh assignments mid-replay.
  {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    for (const auto& r : replacements) {
      size_t f = static_cast<size_t>(r.fragment);
      size_t t = static_cast<size_t>(r.task);
      if (generations_[f][t] != r.generation) continue;  // superseded again
      for (const auto& [node, entries] : journal_[f][t].splits) {
        for (const auto& [split, connector] : entries) {
          r.client->AddSplit(node, split, connector);
        }
      }
      (void)r.client->FlushSplits();
      for (int node : no_more_splits_[f]) {
        r.client->NoMoreSplits(node);
      }
    }
  }
  EndRecoveryPause();

  for (const auto& [f, t, gen, launched] : launch_failures) {
    OnTaskDone(f, t, gen,
               Status::IOError("replacement task create failed: " +
                               launched.message()));
  }

  if (recovery_histogram_ != nullptr) {
    recovery_histogram_->Observe(timer.ElapsedSeconds());
  }
  if (trace != nullptr) {
    trace->RecordSpan("coordinator", "task_recovery", 0, 0, span_start,
                      trace->NowNanos() - span_start,
                      {{"slots", std::to_string(replacements.size())},
                       {"trigger_fragment",
                        std::to_string(request.fragment)},
                       {"trigger_task", std::to_string(request.task)}});
  }
}

std::shared_ptr<TaskClient> QueryExecution::MakeRemoteClientLocked(
    int fragment_id, int task_index) {
  size_t f = static_cast<size_t>(fragment_id);
  size_t t = static_cast<size_t>(task_index);
  return MakeRemoteClientForLocked(fragment_id, task_index,
                                   placement_[f][t], generations_[f][t]);
}

std::shared_ptr<TaskClient> QueryExecution::MakeRemoteClientForLocked(
    int fragment_id, int task_index, int worker, int generation) {
  const ClusterConfig& config = cluster_->config();
  size_t f = static_cast<size_t>(fragment_id);
  const PlanFragment& fragment = plan_.fragments[f];

  TaskSpec spec;
  spec.query_id = query_id_;
  spec.fragment_id = fragment_id;
  spec.task_index = task_index;
  spec.num_tasks = task_counts_[f];
  spec.consumer_partitions =
      fragment.consumer >= 0
          ? task_counts_[static_cast<size_t>(fragment.consumer)]
          : 1;
  spec.worker_id = worker;
  spec.generation = generation;
  for (int input : fragment.inputs) {
    spec.source_task_counts[input] =
        task_counts_[static_cast<size_t>(input)];
  }

  TaskCreateRequest create;
  create.spec = spec;
  create.fragment = fragment_jsons_[f];
  create.eval_mode = config.eval_mode;
  create.exchange_buffer_bytes = config.exchange_buffer_bytes;
  create.max_drivers_per_pipeline = config.max_drivers_per_pipeline;
  create.retain_exchange_frames = recovery_enabled_;
  const auto& writer_counter = active_writers_[f];
  create.active_writers =
      writer_counter != nullptr ? writer_counter->load() : -1;
  create.emit_results_via_exchange = fragment_id == plan_.root_id;
  for (int input : fragment.inputs) {
    size_t in = static_cast<size_t>(input);
    for (int it = 0; it < task_counts_[in]; ++it) {
      create.endpoints.push_back(
          {input, it,
           cluster_->http_port(placement_[in][static_cast<size_t>(it)]),
           generations_[in][static_cast<size_t>(it)]});
    }
  }

  HttpTaskClient::Options options;
  options.task_port = cluster_->task_port(worker);
  options.liveness = &cluster_->liveness();
  // Cross-process trace shipping (ISSUE 10): when the query is traced, ask
  // the worker to record its spans and merge every shipped batch into the
  // query's recorder, labeled per hosting worker.
  if (config.ship_worker_trace && lifecycle_ != nullptr &&
      lifecycle_->trace() != nullptr) {
    create.enable_trace = true;
    options.trace = lifecycle_->trace().get();
    size_t w = static_cast<size_t>(worker);
    if (w < trace_shipped_counters_.size()) {
      options.trace_shipped = trace_shipped_counters_[w];
    }
    if (w < trace_dropped_counters_.size()) {
      options.trace_dropped = trace_dropped_counters_[w];
    }
  }
  return std::make_shared<HttpTaskClient>(spec, create.ToJson(), options);
}

void QueryExecution::DischargeSpeculationLocked() {
  for (auto it = spec_replicas_.begin(); it != spec_replicas_.end();
       it = spec_replicas_.erase(it)) {
    SpecReplica& replica = it->second;
    replica.client->MarkSuperseded();
    replica.client->Abort();
    superseded_clients_.push_back(replica.client);
    if (replica.won) {
      // Its terminal callback already fired and was held; discharge it
      // here (the queued promotion no-ops on the missing entry). A still-
      // racing replica's pending callback settles itself instead: with
      // the entry gone it lands on the stale path (its generation never
      // entered the generations_ table).
      --remaining_tasks_;
    }
  }
}

void QueryExecution::SpeculationTick() {
  struct ReplicaLaunch {
    int fragment;
    int task;
    int generation;
    std::shared_ptr<TaskClient> client;
    bool launch_failed = false;
    Status launch_status = Status::OK();
  };
  std::vector<ReplicaLaunch> launches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!launch_complete_ || finished_ || finalized_ || defer_finalize_ ||
        memory_->killed()) {
      return;
    }
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    // Budget counts CONCURRENT replicas: a settled race frees its slot.
    SpeculationPolicy policy = speculation_policy_;
    policy.max_speculative_tasks -= static_cast<int>(spec_replicas_.size());
    if (policy.max_speculative_tasks <= 0) return;
    std::vector<int> alive;
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      if (cluster_->liveness().IsAlive(w)) alive.push_back(w);
    }
    if (alive.size() < 2) return;
    // Scale the stall floor by the observed heartbeat RTT: on a slow
    // control plane the status caches themselves lag, and a healthy task
    // must not look stalled just because its progress reports do.
    if (Histogram* rtt = cluster_->liveness().rtt_histogram()) {
      Histogram::Snapshot rtt_snapshot = rtt->snapshot();
      if (rtt_snapshot.count > 0) {
        policy.min_stall_micros = std::max(
            policy.min_stall_micros,
            static_cast<int64_t>(8.0 * rtt_snapshot.sum /
                                 static_cast<double>(rtt_snapshot.count)));
      }
    }
    // Sample every slot — finished siblings included, so a fragment whose
    // fast tasks already completed still anchors the quantile the stalled
    // one must be measured against.
    std::vector<TaskProgressSample> samples;
    for (size_t f = 0; f < tasks_.size(); ++f) {
      for (size_t t = 0; t < tasks_[f].size(); ++t) {
        TaskProgressSample sample;
        sample.fragment = static_cast<int>(f);
        sample.task = static_cast<int>(t);
        const auto& client = tasks_[f][t];
        sample.progress = static_cast<double>(client->rows_out());
        sample.stall_micros = client->progress_age_micros();
        sample.speculatable =
            !slot_finished_[f][t] && !slot_recovering_[f][t] &&
            speculated_.count({static_cast<int>(f),
                               static_cast<int>(t)}) == 0 &&
            client->worker_alive();
        samples.push_back(sample);
      }
    }
    std::vector<std::pair<int, int>> stragglers =
        PickStragglers(samples, policy, static_cast<int>(alive.size()));
    size_t cursor = 0;
    for (const auto& [fi, ti] : stragglers) {
      size_t f = static_cast<size_t>(fi);
      size_t t = static_cast<size_t>(ti);
      // The replica must run on a different live worker than the original.
      int target = -1;
      for (size_t i = 0; i < alive.size(); ++i) {
        int w = alive[(cursor + i) % alive.size()];
        if (w != placement_[f][t]) {
          target = w;
          cursor = cursor + i + 1;
          break;
        }
      }
      if (target < 0) continue;
      const int replica_generation = generations_[f][t] + 1;
      auto client =
          MakeRemoteClientForLocked(fi, ti, target, replica_generation);
      SpecReplica replica;
      replica.generation = replica_generation;
      replica.worker = target;
      replica.client = client;
      spec_replicas_[{fi, ti}] = replica;
      speculated_.insert({fi, ti});
      // The replica's own terminal callback joins the drain count; every
      // exit path (win, loss, recovery absorption, query failure) settles
      // exactly this +1.
      ++remaining_tasks_;
      launches.push_back({fi, ti, replica_generation, client});
      if (speculations_counter_ != nullptr) {
        speculations_counter_->Increment();
      }
      if (lifecycle_ != nullptr && lifecycle_->trace() != nullptr) {
        lifecycle_->trace()->RecordInstant(
            "coordinator", "task_speculate", 0, 0,
            {{"fragment", std::to_string(fi)},
             {"task", std::to_string(ti)},
             {"generation", std::to_string(replica_generation)},
             {"worker", std::to_string(target)}});
      }
    }
  }
  if (launches.empty()) return;

  // Create RPCs outside every lock (a failure re-enters OnTaskDone).
  for (auto& launch : launches) {
    QueryExecution* self = this;
    const int f = launch.fragment;
    const int t = launch.task;
    const int gen = launch.generation;
    Status launched = launch.client->Launch([self, f, t, gen](Status status) {
      self->OnTaskDone(f, t, gen, status);
    });
    if (!launched.ok()) {
      launch.launch_failed = true;
      launch.launch_status = launched;
    }
  }

  // Journal replay: everything the original ever received, then mark the
  // replica live for split-loop forwarding — atomically under tasks_mu_,
  // so no split can be both replayed and forwarded.
  {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    for (const auto& launch : launches) {
      if (launch.launch_failed) continue;
      auto it = spec_replicas_.find({launch.fragment, launch.task});
      if (it == spec_replicas_.end() ||
          it->second.generation != launch.generation) {
        continue;  // already settled (e.g. a recovery round absorbed it)
      }
      size_t f = static_cast<size_t>(launch.fragment);
      size_t t = static_cast<size_t>(launch.task);
      for (const auto& [node, entries] : journal_[f][t].splits) {
        for (const auto& [split, connector] : entries) {
          launch.client->AddSplit(node, split, connector);
        }
      }
      (void)launch.client->FlushSplits();
      for (int node : no_more_splits_[f]) {
        launch.client->NoMoreSplits(node);
      }
      it->second.replayed = true;
    }
  }

  for (const auto& launch : launches) {
    if (!launch.launch_failed) continue;
    // No callback will ever fire for this replica; settle it through the
    // lost path directly.
    OnTaskDone(launch.fragment, launch.task, launch.generation,
               Status::IOError("speculative replica create failed: " +
                               launch.launch_status.message()));
  }
}

void QueryExecution::RunPromotion(int fragment, int task, int generation) {
  // Same hard barrier as a recovery round: the split loop must not feed a
  // client between the swap below and its (already-complete) replay state.
  recovery_pause_.store(true);
  struct Replacement {
    int fragment;
    int task;
    int generation;
    std::shared_ptr<TaskClient> client;
  };
  std::vector<Replacement> replacements;
  std::shared_ptr<TaskClient> losing_original;
  bool promoted = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return launch_complete_; });
    size_t f = static_cast<size_t>(fragment);
    size_t t = static_cast<size_t>(task);
    const bool settled =
        finished_ || finalized_ || defer_finalize_ || memory_->killed();
    {
      std::lock_guard<std::mutex> tlock(tasks_mu_);
      auto rit = spec_replicas_.find({fragment, task});
      if (rit == spec_replicas_.end() ||
          rit->second.generation != generation || !rit->second.won) {
        // A recovery round or teardown already settled this replica (and
        // discharged its held callback).
        EndRecoveryPause();
        return;
      }
      // Decide commit vs abandon. Promotion restarts every unfinished
      // task of every fragment transitively consuming the promoted one:
      // their RemoteSources are bound to the losing original's buffers
      // and their own partial frame sequences are not reproducible — the
      // same collateral rule recovery applies (DESIGN.md §13).
      bool illegal = settled || slot_finished_[f][t] || slot_recovering_[f][t];
      std::vector<std::pair<int, int>> restart;
      bool restarts_root = fragment == plan_.root_id;
      if (!illegal) {
        std::vector<std::vector<int>> consumers_of(plan_.fragments.size());
        for (const auto& frag : plan_.fragments) {
          for (int input : frag.inputs) {
            consumers_of[static_cast<size_t>(input)].push_back(frag.id);
          }
        }
        std::set<int> affected;
        std::vector<int> worklist{fragment};
        while (!worklist.empty()) {
          int g = worklist.back();
          worklist.pop_back();
          for (int consumer : consumers_of[static_cast<size_t>(g)]) {
            if (affected.insert(consumer).second) worklist.push_back(consumer);
          }
        }
        for (int af : affected) {
          size_t a = static_cast<size_t>(af);
          for (size_t at = 0; at < slot_finished_[a].size(); ++at) {
            if (slot_finished_[a][at]) continue;
            if (slot_recovering_[a][at]) {
              // A recovery round owns part of the closure; bail out of the
              // promotion rather than fight it (the original keeps
              // running — slow but correct).
              illegal = true;
              break;
            }
            restart.emplace_back(af, static_cast<int>(at));
            if (af == plan_.root_id) restarts_root = true;
          }
          if (illegal) break;
        }
      }
      std::unique_lock<std::mutex> flock(fetch_mu_, std::defer_lock);
      if (!illegal && restarts_root) {
        flock.lock();
        // Frames already delivered to the client cannot be un-delivered;
        // a root restart is only legal before the first one.
        if (root_frames_consumed_ > 0) illegal = true;
      }
      if (illegal) {
        // Abandon the win: abort the replica and let the original keep
        // running. Its held callback settles as a plain count drop.
        SpecReplica replica = rit->second;
        spec_replicas_.erase(rit);
        replica.client->MarkSuperseded();
        replica.client->Abort();
        superseded_clients_.push_back(replica.client);
        --remaining_tasks_;
        if (lifecycle_ != nullptr && lifecycle_->trace() != nullptr) {
          lifecycle_->trace()->RecordInstant(
              "coordinator", "speculation_lose", 0, 0,
              {{"fragment", std::to_string(fragment)},
               {"task", std::to_string(task)},
               {"generation", std::to_string(generation)},
               {"reason", "promotion_illegal"}});
        }
      } else {
        promoted = true;
        SpecReplica replica = rit->second;
        spec_replicas_.erase(rit);
        // The replica becomes the slot's incarnation; its held callback
        // becomes the slot's completion.
        losing_original = tasks_[f][t];
        losing_original->MarkSuperseded();
        superseded_clients_.push_back(losing_original);
        tasks_[f][t] = replica.client;
        generations_[f][t] = replica.generation;
        placement_[f][t] = replica.worker;
        slot_finished_[f][t] = true;
        --remaining_tasks_;
        --fragment_remaining_[f];
        if (fragment_remaining_[f] == 0) fragment_done_[f] = true;
        // Collateral consumer restarts, exactly like RunRecovery's: they
        // stay on their workers (the same-id higher-generation create
        // supersedes the old worker-side entry in place).
        for (const auto& [ci, cti] : restart) {
          size_t cf = static_cast<size_t>(ci);
          size_t ct = static_cast<size_t>(cti);
          ++generations_[cf][ct];
          // The replacement's callback joins the count; the still-running
          // original settles later through the stale path.
          ++remaining_tasks_;
          tasks_[cf][ct]->MarkSuperseded();
          superseded_clients_.push_back(tasks_[cf][ct]);
          auto fresh = MakeRemoteClientLocked(ci, cti);
          tasks_[cf][ct] = fresh;
          replacements.push_back({ci, cti, generations_[cf][ct], fresh});
        }
        if (restarts_root) {
          ++root_epoch_;
          size_t root = static_cast<size_t>(plan_.root_id);
          root_fetch_port_ = cluster_->http_port(placement_[root][0]);
          root_fetch_generation_ = generations_[root][0];
        }
        if (wins_counter_ != nullptr) wins_counter_->Increment();
        if (lifecycle_ != nullptr && lifecycle_->trace() != nullptr) {
          lifecycle_->trace()->RecordInstant(
              "coordinator", "speculation_win", 0, 0,
              {{"fragment", std::to_string(fragment)},
               {"task", std::to_string(task)},
               {"generation", std::to_string(generation)},
               {"collateral", std::to_string(restart.size())}});
        }
      }
    }
    // The losing original gets a task-scoped kCancelled: the worker kills
    // its drivers and retires the entry, and the coordinator-side callback
    // settles through the stale path (its generation is now behind).
    if (losing_original != nullptr) losing_original->Abort();
    FinishIfDrainedLocked();
    done_cv_.notify_all();
  }
  if (!promoted || replacements.empty()) {
    EndRecoveryPause();
    return;
  }

  // Launch the collateral replacements outside every lock, then replay
  // their journals — the same tail as a recovery round.
  std::vector<std::tuple<int, int, int, Status>> launch_failures;
  for (const auto& r : replacements) {
    QueryExecution* self = this;
    const int rf = r.fragment;
    const int rt = r.task;
    const int rgen = r.generation;
    Status launched = r.client->Launch([self, rf, rt, rgen](Status status) {
      self->OnTaskDone(rf, rt, rgen, status);
    });
    if (!launched.ok()) {
      launch_failures.emplace_back(rf, rt, rgen, launched);
    }
  }
  {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    for (const auto& r : replacements) {
      size_t rf = static_cast<size_t>(r.fragment);
      size_t rt = static_cast<size_t>(r.task);
      if (generations_[rf][rt] != r.generation) continue;  // superseded again
      for (const auto& [node, entries] : journal_[rf][rt].splits) {
        for (const auto& [split, connector] : entries) {
          r.client->AddSplit(node, split, connector);
        }
      }
      (void)r.client->FlushSplits();
      for (int node : no_more_splits_[rf]) {
        r.client->NoMoreSplits(node);
      }
    }
  }
  EndRecoveryPause();
  for (const auto& [rf, rt, rgen, launched] : launch_failures) {
    OnTaskDone(rf, rt, rgen,
               Status::IOError("post-promotion restart create failed: " +
                               launched.message()));
  }
}

void QueryExecution::FinalizeLocked() {
  if (finalized_) return;
  finalized_ = true;
  // Every task callback has fired, so nothing references the drivers
  // (or, over HTTP, the worker-side task entries) anymore. Release
  // them now — regardless of whether the query finished, failed, was
  // cancelled, or was abandoned — returning every memory-pool
  // reservation, dropping exchange-buffer references, and deleting
  // spill files. A final stats snapshot is cached first so EXPLAIN
  // ANALYZE still works after teardown. (Recovery swaps hold mu_ too,
  // so iterating tasks_ under mu_ alone is race-free here.)
  for (auto& fragment_tasks : tasks_) {
    for (auto& task : fragment_tasks) task->ReleaseResources();
  }
  // Superseded pre-recovery clients are NOT destroyed here: the last stale
  // callback is delivered on its own client's poll thread, which may be
  // the very thread running this finalization — destroying that client
  // would join the current thread with itself. ~QueryExecution (a waiter
  // thread) frees them instead. No ReleaseResources for them either —
  // their task ids now belong to the replacements released above.
  if (cluster_ != nullptr) cluster_->exchange().RemoveQuery(query_id_);
  // Finalize the lifecycle before mu_ is released: a Wait()-er may
  // destroy this object the moment the lock drops, and QueryInfoFor
  // after Wait() must observe the terminal state.
  if (lifecycle_ != nullptr) {
    lifecycle_->Finalize(final_status_, client_cancelled_.load(),
                         StatsSnapshot());
  }
  // Release the admission slot before the unlock too: it only takes
  // the coordinator's admission mutex, which is never held while an
  // execution's mu_ is acquired, so there is no lock cycle.
  if (on_complete_) {
    on_complete_();
    on_complete_ = nullptr;
  }
}

void QueryExecution::FinalizeIfDeferred() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!defer_finalize_ || finalized_) return;
    finished_ = true;
    // Belt and braces: the fetch thread normally finished the stream
    // before getting here; if it exited on an error, Cancel() already
    // finished it with that error (first-wins makes this a no-op then).
    results_.Finish(final_status_);
    FinalizeLocked();
  }
  done_cv_.notify_all();
}

void QueryExecution::ResultFetchLoop() {
  int my_epoch;
  int port;
  int generation;
  {
    std::lock_guard<std::mutex> flock(fetch_mu_);
    my_epoch = root_epoch_;
    port = root_fetch_port_;
    generation = root_fetch_generation_;
  }
  ExchangeHttpClient fetcher(
      &cluster_->exchange(), port,
      StreamId{query_id_, plan_.root_id, /*task=*/0, /*partition=*/0},
      generation);
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  if (trace != nullptr) fetcher.SetTraceContext(trace, 0, 0);
  // Fetch errors are tolerated for this long while recovery is enabled:
  // the window covers the liveness verdict on a dead root worker plus the
  // recovery round that re-points us at the replacement.
  const int64_t patience_micros =
      cluster_->config().heartbeat_timeout_micros * 3 + 2'000'000;
  Stopwatch error_timer;
  bool error_window_open = false;
  while (!stop_fetch_thread_.load() && !results_.finished()) {
    {
      std::lock_guard<std::mutex> flock(fetch_mu_);
      if (root_epoch_ != my_epoch) {
        // Recovery moved the root task: re-open against the replacement,
        // back at token 0. The fetcher's internal delivered count may
        // exceed root_frames_consumed_ — a batch Fetch() returned but the
        // epoch check below dropped was counted there yet never reached
        // the client — so the replay watermark must be the committed
        // count (zero: a root restart is only legal at zero consumed
        // frames), not the fetcher's.
        my_epoch = root_epoch_;
        fetcher.ResetForReplacement(root_fetch_port_,
                                    root_fetch_generation_,
                                    root_frames_consumed_);
        error_window_open = false;
      }
    }
    auto fetched = fetcher.Fetch();
    if (!fetched.ok()) {
      if (recovery_enabled_) {
        if (!error_window_open) {
          error_window_open = true;
          error_timer.Reset();
        }
        if (error_timer.ElapsedMicros() < patience_micros) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
      }
      Cancel(fetched.status());
      break;
    }
    error_window_open = false;
    // Commit the batch to the current epoch BEFORE delivering any page:
    // recovery may only restart the root while the consumed count is
    // zero, so the count must be visible first — and a batch that raced a
    // root restart is dropped (the replacement replays from token 0).
    {
      std::lock_guard<std::mutex> flock(fetch_mu_);
      if (root_epoch_ != my_epoch) continue;
      root_frames_consumed_ += fetched->frame_count - fetched->skip_frames;
    }
    cluster_->exchange().RecordTransfer(
        static_cast<int64_t>(fetched->body.size()));
    size_t offset = 0;
    int64_t to_skip = fetched->skip_frames;
    bool decode_failed = false;
    while (offset < fetched->body.size()) {
      auto page = cluster_->exchange().codec().Decode(fetched->body, &offset);
      if (!page.ok()) {
        Cancel(page.status());
        decode_failed = true;
        break;
      }
      if (to_skip > 0) {
        // Replayed frame already delivered before a reset: decode (to
        // advance the offset) and drop.
        --to_skip;
        continue;
      }
      // TryPush consumes its argument even on failure, so retry with
      // copies; the bounded queue is the client-backpressure point.
      Page decoded = std::move(*page);
      while (!stop_fetch_thread_.load() && !results_.finished()) {
        Page attempt = decoded;
        if (results_.TryPush(std::move(attempt))) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (decode_failed) break;
    if (fetched->complete) {
      // With recovery enabled the root buffer is retained like any other;
      // FinalizeLocked()'s task release tears it down with the query.
      if (!recovery_enabled_) (void)fetcher.DeleteBuffer();
      // First-wins with Cancel()/task-failure finalization: whichever
      // reason reached the queue first sticks.
      results_.Finish(Status::OK());
      // Tear down upstream producers still running after a short-circuit
      // root (LIMIT): their buffers have lost their only consumer.
      AbortAllTasks();
      break;
    }
    if (fetched->body.empty()) {
      // Long-poll timeout, or the root task's create RPC is still in
      // flight (the exchange answers token 0 with an empty batch then).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // If the last task completed while we were still draining, OnTaskDone
  // left end-of-query teardown to us.
  FinalizeIfDeferred();
}

void QueryExecution::SplitSchedulingLoop() {
  const ClusterConfig& config = cluster_->config();
  TraceRecorder* trace =
      lifecycle_ != nullptr ? lifecycle_->trace().get() : nullptr;
  // Pending split sources: (fragment, scan node id, source, exhausted).
  struct PendingSource {
    int fragment;
    int node_id;
    std::shared_ptr<const TableScanNode> scan;
    Connector* connector;
    std::unique_ptr<SplitSource> source;
    bool exhausted = false;
    /// Splits pulled but not yet assignable (no live task at the time);
    /// retried once recovery re-created the fragment's tasks.
    std::vector<SplitPtr> carryover;
  };
  std::vector<PendingSource> sources;
  for (const auto& fragment : plan_.fragments) {
    if (fragment.partitioning != PartitioningKind::kSource &&
        fragment.partitioning != PartitioningKind::kColocated) {
      continue;
    }
    std::vector<std::shared_ptr<const TableScanNode>> scans;
    CollectScans(fragment.root, &scans);
    for (const auto& scan : scans) {
      auto connector = catalog_->Get(scan->connector());
      if (!connector.ok()) {
        Cancel(connector.status());
        return;
      }
      ScanSpec spec;
      spec.table = scan->table();
      spec.layout_id = scan->layout_id();
      spec.columns = scan->columns();
      spec.predicates = scan->predicates();
      spec.num_workers = cluster_->num_workers();
      // Through the split cache when attached (ISSUE 8): a repeated scan
      // of an unchanged table replays the materialized split list instead
      // of re-enumerating against the connector.
      auto source = metadata_manager_ != nullptr
                        ? metadata_manager_->GetSplits(scan->connector(),
                                                       *connector, spec)
                        : (*connector)->GetSplits(spec);
      if (!source.ok()) {
        Cancel(source.status());
        return;
      }
      sources.push_back(PendingSource{fragment.id, scan->id(), scan,
                                      *connector, std::move(*source), false,
                                      {}});
    }
  }
  // Writer-scaling bookkeeping.
  Stopwatch scale_timer;

  auto all_deps_done = [this](const PlanFragment& fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int dep : fragment.build_dependencies) {
      if (!fragment_done_[static_cast<size_t>(dep)]) return false;
    }
    return true;
  };
  auto snapshot_tasks = [this](int fragment) {
    std::lock_guard<std::mutex> tlock(tasks_mu_);
    return tasks_[static_cast<size_t>(fragment)];
  };

  // A round that assigned nothing waits this long at most before polling
  // the split queues again; completion, recovery and query end wake it.
  constexpr std::chrono::microseconds kIdleRoundWait{500};
  bool work_left = true;
  while (!stop_split_thread_.load() && !memory_->killed()) {
    if (recovery_pause_.load()) {
      // A recovery round is swapping task clients and replaying journals;
      // park until the tables are consistent again.
      WaitSplitLoop(std::chrono::milliseconds(1));
      continue;
    }
    work_left = false;
    bool assigned = false;  // any split or end-of-splits marker delivered
    for (auto& pending : sources) {
      if (pending.exhausted) continue;
      work_left = true;
      const PlanFragment& fragment =
          plan_.fragments[static_cast<size_t>(pending.fragment)];
      // Phased scheduling (§IV-D1): defer probe-side split enumeration
      // until join build producers completed.
      if (config.phased_scheduling && !fragment.build_dependencies.empty() &&
          !all_deps_done(fragment)) {
        continue;
      }
      std::vector<std::shared_ptr<TaskClient>> fragment_tasks =
          snapshot_tasks(pending.fragment);
      // Lazy enumeration: pause while queues are deep (§IV-D3).
      size_t min_queue = SIZE_MAX;
      for (const auto& task : fragment_tasks) {
        auto size = task->SplitQueueSize(pending.node_id);
        if (size.has_value()) min_queue = std::min(min_queue, *size);
      }
      if (min_queue != SIZE_MAX &&
          min_queue > static_cast<size_t>(config.split_queue_soft_limit)) {
        continue;
      }
      std::vector<SplitPtr> batch;
      if (!pending.carryover.empty()) {
        batch = std::move(pending.carryover);
        pending.carryover.clear();
      } else {
        auto batch_or = pending.source->NextBatch(config.split_batch_size);
        if (!batch_or.ok()) {
          Cancel(batch_or.status());
          return;
        }
        if (batch_or->empty()) {
          {
            // Journal the end-of-splits marker and deliver it to the
            // CURRENT clients under the same lock, so a replacement
            // created concurrently can never miss it (it either gets the
            // RPC directly or finds the marker in the journal replay).
            std::lock_guard<std::mutex> tlock(tasks_mu_);
            if (recovery_pause_.load()) {
              // A recovery round is between its client swap and its
              // journal replay: a marker delivered to a fresh client now
              // would precede the replayed splits. Retry after the round
              // (the drained source returns another empty batch).
              continue;
            }
            pending.exhausted = true;
            assigned = true;
            if (recovery_enabled_) {
              no_more_splits_[static_cast<size_t>(pending.fragment)].insert(
                  pending.node_id);
            }
            for (const auto& task :
                 tasks_[static_cast<size_t>(pending.fragment)]) {
              task->NoMoreSplits(pending.node_id);
            }
            // Racing speculative replicas of this fragment see the marker
            // too (pre-replay replicas get it from the journal replay).
            for (auto& [slot, replica] : spec_replicas_) {
              if (slot.first == pending.fragment && replica.replayed) {
                replica.client->NoMoreSplits(pending.node_id);
              }
            }
          }
          if (trace != nullptr) {
            trace->RecordInstant(
                "scheduler", "splits_exhausted", 0, 0,
                {{"fragment", std::to_string(pending.fragment)},
                 {"scan_node", std::to_string(pending.node_id)}});
          }
          continue;
        }
        batch = std::move(*batch_or);
      }
      if (trace != nullptr) {
        trace->RecordInstant(
            "scheduler", "split_batch", 0, 0,
            {{"fragment", std::to_string(pending.fragment)},
             {"scan_node", std::to_string(pending.node_id)},
             {"splits", std::to_string(batch.size())}});
      }
      Status assign_failure = Status::OK();
      {
        // One lock scope covers target choice, journal append, and the
        // AddSplit — a recovery swap can therefore never slip between the
        // choice and the delivery and strand the split on a superseded
        // client whose buffered updates go nowhere.
        std::lock_guard<std::mutex> tlock(tasks_mu_);
        if (recovery_pause_.load()) {
          // Loop-top check raced a recovery round: the round may already
          // have swapped fresh clients but not replayed their journals
          // yet, and a split journaled + delivered now would arrive a
          // second time with the replay. Park the batch instead.
          pending.carryover = std::move(batch);
          continue;
        }
        auto& current = tasks_[static_cast<size_t>(pending.fragment)];
        for (size_t si = 0; si < batch.size(); ++si) {
          const auto& split = batch[si];
          int target = -1;
          if (split->preferred_worker() >= 0 && split->hard_affinity()) {
            // Shared-nothing placement (§IV-D2).
            target = split->preferred_worker() %
                     static_cast<int>(current.size());
          } else {
            // Shortest-queue assignment (§IV-D3) over live workers only.
            auto target_or = ChooseSplitTarget(current, pending.node_id);
            if (!target_or.ok()) {
              if (recovery_enabled_) {
                // Park the unassigned remainder; recovery is about to
                // re-create the fragment's tasks on live workers.
                pending.carryover.assign(batch.begin() +
                                             static_cast<int64_t>(si),
                                         batch.end());
              } else {
                // Fail fast instead of silently dumping the split on task
                // 0 (which may sit on the very worker that just died).
                assign_failure = target_or.status();
              }
              break;
            }
            target = *target_or;
          }
          if (recovery_enabled_) {
            journal_[static_cast<size_t>(pending.fragment)]
                    [static_cast<size_t>(target)]
                        .splits[pending.node_id]
                        .emplace_back(split, pending.connector);
          }
          current[static_cast<size_t>(target)]->AddSplit(
              pending.node_id, split, pending.connector);
          // Mirror the delivery into a racing replica of the same slot —
          // only once its journal replay completed; earlier splits reach
          // it through the replay (forwarding before that would deliver
          // this split twice).
          auto rit = spec_replicas_.find({pending.fragment, target});
          if (rit != spec_replicas_.end() && rit->second.replayed) {
            rit->second.client->AddSplit(pending.node_id, split,
                                         pending.connector);
          }
        }
      }
      if (!assign_failure.ok()) {
        Cancel(assign_failure);
        return;
      }
      assigned = true;
      // Ship the batch (buffered update POSTs; no-op in-process). A
      // superseded client turns this into a no-op; a client whose worker
      // just died reports an IOError the journal replay makes good.
      for (const auto& task : snapshot_tasks(pending.fragment)) {
        Status flushed = task->FlushSplits();
        if (!flushed.ok()) {
          if (recovery_enabled_ &&
              flushed.code() == StatusCode::kIOError &&
              !task->worker_alive()) {
            continue;
          }
          Cancel(flushed);
          return;
        }
      }
      // Best-effort flush for racing replicas: a failing replica cannot
      // fail the query (its own terminal callback settles the race).
      if (speculation_enabled_) {
        std::vector<std::shared_ptr<TaskClient>> replica_tasks;
        {
          std::lock_guard<std::mutex> tlock(tasks_mu_);
          for (auto& [slot, replica] : spec_replicas_) {
            if (slot.first == pending.fragment && replica.replayed) {
              replica_tasks.push_back(replica.client);
            }
          }
        }
        for (const auto& task : replica_tasks) (void)task->FlushSplits();
      }
    }

    // Adaptive writer scaling (§IV-E3): while producer output buffers stay
    // busy, activate more writer partitions.
    if (config.adaptive_writer_scaling && scale_timer.ElapsedMillis() > 10) {
      scale_timer.Reset();
      for (const auto& fragment : plan_.fragments) {
        if (fragment.output_kind != ExchangeKind::kRoundRobin) continue;
        auto& counter = active_writers_[static_cast<size_t>(fragment.id)];
        if (counter == nullptr) continue;
        std::vector<std::shared_ptr<TaskClient>> producer_tasks =
            snapshot_tasks(fragment.id);
        int consumer_tasks =
            static_cast<int>(snapshot_tasks(fragment.consumer).size());
        if (counter->load() >= consumer_tasks) continue;
        double utilization = 0;
        int count = 0;
        for (const auto& task : producer_tasks) {
          utilization += task->OutputUtilization();
          ++count;
        }
        if (count > 0 && utilization / count > 0.5) {
          counter->fetch_add(1);
          // Direct tasks read the shared counter; remote tasks learn the
          // new width over the wire.
          int writers = counter->load();
          for (const auto& task : producer_tasks) {
            task->SetActiveWriters(writers);
          }
        }
      }
      work_left = true;  // keep monitoring while the query runs
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (remaining_tasks_ == 0) return;
    }
    if (!work_left && !config.adaptive_writer_scaling) return;
    // A round that delivered splits goes straight on to the next batch.
    if (!assigned) WaitSplitLoop(kIdleRoundWait);
  }
}

Result<std::shared_ptr<QueryExecution>> Coordinator::Execute(
    const std::string& query_id, FragmentedPlan plan,
    std::shared_ptr<QueryLifecycle> lifecycle) {
  const bool process_mode = cluster_->mode() == ClusterMode::kProcess;
  if (process_mode) {
    if (cluster_->num_workers() == 0) {
      return Status(StatusCode::kInvalidArgument,
                    "process-mode cluster has no remote workers");
    }
    for (const auto& fragment : plan.fragments) {
      if (ContainsTableWrite(fragment.root)) {
        return Status(StatusCode::kUnsupported,
                      "table writes are not supported with out-of-process "
                      "workers");
      }
    }
  }

  // Admission control: bounded concurrent queries (queueing, §III).
  TraceRecorder* trace =
      lifecycle != nullptr ? lifecycle->trace().get() : nullptr;
  if (lifecycle != nullptr) lifecycle->MarkQueuedForAdmission();
  {
    int64_t admit_start = trace != nullptr ? trace->NowNanos() : 0;
    queued_.fetch_add(1);
    std::unique_lock<std::mutex> lock(admission_mu_);
    admission_cv_.wait(lock, [this] {
      return running_ < cluster_->config().max_concurrent_queries;
    });
    ++running_;
    queued_.fetch_sub(1);
    if (trace != nullptr) {
      trace->RecordSpan("coordinator", "admission_wait", 0, 0, admit_start,
                        trace->NowNanos() - admit_start);
    }
  }

  auto execution = std::shared_ptr<QueryExecution>(new QueryExecution());
  execution->query_id_ = query_id;
  execution->lifecycle_ = std::move(lifecycle);
  execution->cluster_ = cluster_;
  execution->catalog_ = catalog_;
  execution->metadata_manager_ = metadata_manager_;
  execution->plan_ = std::move(plan);
  execution->process_mode_ = process_mode;
  execution->memory_ =
      std::make_unique<QueryMemory>(query_id, &cluster_->config().memory);
  execution->memory_->set_trace(trace);
  execution->schema_ =
      execution->plan_.fragments[static_cast<size_t>(
                                     execution->plan_.root_id)]
          .root->output();
  execution->on_complete_ = [this] {
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      --running_;
    }
    admission_cv_.notify_all();
  };

  const FragmentedPlan& fplan = execution->plan_;
  const ClusterConfig& config = cluster_->config();
  size_t num_fragments = fplan.fragments.size();
  execution->tasks_.resize(num_fragments);
  execution->active_writers_.resize(num_fragments);
  execution->fragment_remaining_.assign(num_fragments, 0);
  execution->fragment_done_.assign(num_fragments, false);

  // Decide task counts per fragment.
  std::vector<int> task_counts(num_fragments, 1);
  for (const auto& fragment : fplan.fragments) {
    switch (fragment.partitioning) {
      case PartitioningKind::kSingle:
        task_counts[static_cast<size_t>(fragment.id)] = 1;
        break;
      case PartitioningKind::kHash:
      case PartitioningKind::kSource:
      case PartitioningKind::kColocated:
        // Leaf stages run on every worker when unconstrained (§IV-D2).
        task_counts[static_cast<size_t>(fragment.id)] =
            cluster_->num_workers();
        break;
    }
  }

  // Writer-scaling counters for round-robin producer fragments.
  for (const auto& fragment : fplan.fragments) {
    if (fragment.output_kind == ExchangeKind::kRoundRobin &&
        fragment.consumer >= 0) {
      int consumers = task_counts[static_cast<size_t>(fragment.consumer)];
      int initial = config.adaptive_writer_scaling ? 1 : consumers;
      execution->active_writers_[static_cast<size_t>(fragment.id)] =
          std::make_unique<std::atomic<int>>(initial);
    }
  }

  // Placement: fragment -> task index -> worker id. Shared by both modes
  // (process mode ships the same placement as endpoint lists).
  int single_task_worker =
      round_robin_worker_.load(std::memory_order_relaxed);
  std::vector<std::vector<int>> placement(num_fragments);
  for (const auto& fragment : fplan.fragments) {
    int count = task_counts[static_cast<size_t>(fragment.id)];
    for (int t = 0; t < count; ++t) {
      int worker = count == 1
                       ? (single_task_worker++ % cluster_->num_workers())
                       : t;
      placement[static_cast<size_t>(fragment.id)].push_back(worker);
    }
  }
  round_robin_worker_.store(single_task_worker % cluster_->num_workers(),
                            std::memory_order_relaxed);

  // Route around workers already known to be dead: launching a task there
  // would only fail the create and bounce through a recovery round (or,
  // with retries exhausted, fail the query outright). Dead slots re-home
  // to live workers round-robin; a cluster with no live worker at all
  // cannot run anything.
  if (process_mode) {
    std::vector<int> live;
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      if (cluster_->liveness().IsAlive(w)) live.push_back(w);
    }
    if (live.empty()) {
      return Status::IOError("no live workers to place query tasks on");
    }
    size_t cursor = 0;
    for (auto& fragment_slots : placement) {
      for (int& worker : fragment_slots) {
        if (cluster_->liveness().IsAlive(worker)) continue;
        worker = live[cursor++ % live.size()];
      }
    }
  }

  // Scheduling tables: kept for the query's lifetime so recovery can
  // rebuild any task's create request (ISSUE 7).
  execution->recovery_enabled_ =
      process_mode && config.max_task_retries > 0;
  execution->max_task_retries_ = config.max_task_retries;
  execution->task_counts_ = task_counts;
  execution->placement_ = placement;
  execution->fragment_jsons_.resize(num_fragments);
  execution->generations_.resize(num_fragments);
  execution->retry_counts_.resize(num_fragments);
  execution->slot_finished_.resize(num_fragments);
  execution->slot_recovering_.resize(num_fragments);
  execution->journal_.resize(num_fragments);
  execution->no_more_splits_.resize(num_fragments);
  for (size_t f = 0; f < num_fragments; ++f) {
    size_t count = static_cast<size_t>(task_counts[f]);
    execution->generations_[f].assign(count, 0);
    execution->retry_counts_[f].assign(count, 0);
    execution->slot_finished_[f].assign(count, false);
    execution->slot_recovering_[f].assign(count, false);
    execution->journal_[f].resize(count);
  }
  execution->retries_counter_ = retries_counter_;
  execution->recovery_histogram_ = recovery_histogram_;
  execution->speculations_counter_ = speculations_counter_;
  execution->wins_counter_ = speculation_wins_counter_;
  execution->trace_shipped_counters_ = trace_shipped_counters_;
  execution->trace_dropped_counters_ = trace_dropped_counters_;
  // Speculation rides on the recovery machinery (journal replay,
  // generations, superseded clients) and needs a second worker to place
  // replicas on; off by default (max_speculative_tasks = 0).
  execution->speculation_enabled_ = execution->recovery_enabled_ &&
                                    config.max_speculative_tasks > 0 &&
                                    cluster_->num_workers() > 1;
  if (execution->speculation_enabled_) {
    execution->speculation_policy_.max_speculative_tasks =
        config.max_speculative_tasks;
    execution->speculation_policy_.quantile = config.speculation_quantile;
    execution->speculation_policy_.min_samples = config.speculation_min_samples;
    execution->speculation_policy_.min_stall_micros =
        config.speculation_min_stall_micros;
  }

  // Create the per-task clients.
  for (const auto& fragment : fplan.fragments) {
    int count = task_counts[static_cast<size_t>(fragment.id)];
    execution->fragment_remaining_[static_cast<size_t>(fragment.id)] = count;
    execution->remaining_tasks_ += count;
    if (process_mode) {
      auto serialized = PlanFragmentToJson(fragment);
      if (!serialized.ok()) return serialized.status();
      execution->fragment_jsons_[static_cast<size_t>(fragment.id)] =
          std::move(*serialized);
    }
    for (int t = 0; t < count; ++t) {
      int worker = placement[static_cast<size_t>(fragment.id)]
                            [static_cast<size_t>(t)];
      if (process_mode) {
        // Out-of-process task: ship the serialized fragment plus the
        // exchange endpoints of every producer task feeding it. (No lock
        // needed pre-launch — nothing else references the tables yet.)
        execution->tasks_[static_cast<size_t>(fragment.id)].push_back(
            execution->MakeRemoteClientLocked(fragment.id, t));
        continue;
      }

      TaskSpec spec;
      spec.query_id = query_id;
      spec.fragment_id = fragment.id;
      spec.task_index = t;
      spec.num_tasks = count;
      spec.consumer_partitions =
          fragment.consumer >= 0
              ? task_counts[static_cast<size_t>(fragment.consumer)]
              : 1;
      spec.worker_id = worker;
      for (int input : fragment.inputs) {
        spec.source_task_counts[input] =
            task_counts[static_cast<size_t>(input)];
      }

      // In-process task: the pre-ISSUE-6 path, byte for byte, behind
      // DirectTaskClient.
      if (config.network.transport == TransportMode::kHttp) {
        // Consumers resolve a producer task's output via its worker's
        // exchange endpoint; the coordinator owns placement, so it owns
        // the (task -> endpoint) map too.
        cluster_->exchange().RegisterTaskEndpoint(
            query_id, fragment.id, t, cluster_->http_port(worker));
      }
      TaskRuntime runtime;
      runtime.query_memory = execution->memory_.get();
      runtime.worker_memory = &cluster_->worker(worker).memory();
      runtime.exchange = &cluster_->exchange();
      runtime.catalog = catalog_;
      runtime.eval_mode = config.eval_mode;
      runtime.exchange_buffer_bytes = config.exchange_buffer_bytes;
      runtime.max_drivers_per_pipeline = config.max_drivers_per_pipeline;
      runtime.trace = trace;
      if (fragment.id == fplan.root_id) {
        runtime.results = &execution->results_;
      }
      const auto& writer_counter =
          execution->active_writers_[static_cast<size_t>(fragment.id)];
      if (writer_counter != nullptr) {
        runtime.active_output_partitions = writer_counter.get();
      }
      auto task = std::make_shared<TaskExec>(
          spec, runtime,
          &fplan.fragments[static_cast<size_t>(fragment.id)]);
      PRESTO_RETURN_IF_ERROR(task->Initialize());
      execution->tasks_[static_cast<size_t>(fragment.id)].push_back(
          std::make_shared<DirectTaskClient>(std::move(task),
                                             &cluster_->worker(worker)
                                                  .executor(),
                                             &cluster_->exchange()));
    }
  }

  if (execution->lifecycle_ != nullptr) {
    std::map<int, int> fragment_task_counts;
    for (const auto& fragment : fplan.fragments) {
      fragment_task_counts[fragment.id] =
          task_counts[static_cast<size_t>(fragment.id)];
    }
    execution->lifecycle_->MarkRunning(std::move(fragment_task_counts));
  }

  // The root fetch target must be set before any Launch is issued: a
  // create that fails synchronously can trigger a recovery round that
  // re-points root_fetch_port_ at a replacement worker (with an epoch
  // bump), and a later assignment from the stale local placement would
  // silently undo that redirect.
  if (process_mode) {
    execution->root_fetch_port_ = cluster_->http_port(
        placement[static_cast<size_t>(fplan.root_id)][0]);
  }

  // Recovery plumbing must exist before the first Launch: a create that
  // fails on a just-dead worker re-enters OnTaskDone, which may absorb
  // the failure into a recovery request immediately.
  QueryExecution* raw = execution.get();
  if (execution->recovery_enabled_) {
    execution->recovery_ = std::make_unique<TaskRecoveryManager>(
        [raw](const RecoveryRequest& request) { raw->RunRecovery(request); });
    execution->liveness_listener_ = cluster_->liveness().AddDeathListener(
        [raw](int worker) { raw->OnWorkerDeath(worker); });
  }
  if (execution->speculation_enabled_) {
    // Ticks started now are harmless: SpeculationTick early-outs until
    // launch_complete_.
    execution->speculation_ = std::make_unique<SpeculationManager>(
        config.speculation_interval_micros, [raw] { raw->SpeculationTick(); });
  }

  // Launch: register every task with its worker's executor — local MLFQ in
  // kThreads mode, a remote daemon's via the create RPC in kProcess mode
  // (all-at-once; phased mode defers only split enumeration, keeping
  // pipelines available to consume build sides without deadlocks).
  for (const auto& fragment_tasks : execution->tasks_) {
    if (trace != nullptr && !fragment_tasks.empty()) {
      trace->RecordInstant(
          "scheduler", "stage_scheduled", 0, 0,
          {{"fragment",
            std::to_string(fragment_tasks.front()->spec().fragment_id)},
           {"tasks", std::to_string(fragment_tasks.size())}});
    }
    for (const auto& task : fragment_tasks) {
      int fragment = task->spec().fragment_id;
      int task_index = task->spec().task_index;
      // A create failure earlier in this loop may already have failed the
      // query (no retry budget) and aborted every task launched so far.
      // Creating MORE tasks after that sweep would strand them: nothing
      // aborts them again, their callbacks never fire, and Wait() hangs.
      // Settle the accounting without launching instead.
      bool already_failed;
      {
        std::lock_guard<std::mutex> lock(execution->mu_);
        already_failed = execution->finished_;
      }
      if (already_failed) {
        raw->OnTaskDone(fragment, task_index, /*generation=*/0,
                        Status::Cancelled("query failed before launch"));
        continue;
      }
      // Raw capture is safe: ~QueryExecution waits for every task callback
      // before releasing the object.
      Status launched =
          task->Launch([raw, fragment, task_index](Status status) {
            raw->OnTaskDone(fragment, task_index, /*generation=*/0, status);
          });
      if (!launched.ok()) {
        // The callback will never fire for this task; settle its
        // accounting directly so Wait() terminates and the failure
        // becomes the query status (or a recovery request).
        raw->OnTaskDone(fragment, task_index, /*generation=*/0, launched);
      }
    }
  }
  // An asynchronous failure can interleave with the loop above: a task
  // launched after that failure's abort sweep would be missed by it.
  // Re-sweep now that the task set is complete.
  if (process_mode) {
    bool failed_during_launch;
    {
      std::lock_guard<std::mutex> lock(execution->mu_);
      failed_during_launch = execution->finished_;
    }
    if (failed_during_launch) execution->AbortAllTasks();
  }

  // Unblock recovery: every gen-0 Launch has been issued, so the recovery
  // thread may now swap replacement clients into tasks_.
  {
    std::lock_guard<std::mutex> lock(execution->mu_);
    execution->launch_complete_ = true;
  }
  execution->done_cv_.notify_all();

  // Start the split/monitor thread. It captures a raw pointer: the
  // destructor joins the thread before members are destroyed.
  execution->split_thread_ =
      std::thread([raw] { raw->SplitSchedulingLoop(); });
  if (process_mode) {
    execution->result_fetch_thread_ =
        std::thread([raw] { raw->ResultFetchLoop(); });
  }
  execution->launched_ = true;

  return execution;
}

}  // namespace presto
