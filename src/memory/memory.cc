#include "memory/memory.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/fault_injection.h"
#include "stats/trace.h"

namespace presto {

void QueryMemory::Kill(const Status& reason) {
  std::vector<WakeupPtr> wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (killed_.load()) return;
    kill_reason_ = reason;
    killed_.store(true);
    wake = kill_waiters_.Take();
  }
  FireAll(wake);
}

void QueryMemory::OnKill(const WakeupPtr& waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!killed_.load()) kill_waiters_.Add(waiter);
}

Status QueryMemory::kill_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kill_reason_;
}

Status WorkerMemory::Reserve(QueryMemory* query, int64_t bytes, bool user) {
  PRESTO_DCHECK(bytes >= 0);
  if (query->killed()) return query->kill_reason();
  if (FaultInjection::Enabled()) {
    Status injected = FaultInjection::Instance().Hit("memory.reserve");
    if (!injected.ok()) {
      // An allocation failure is fatal for the whole query, exactly like a
      // real limit breach below — kill so sibling drivers fail fast too.
      query->Kill(injected);
      return injected;
    }
  }
  const MemoryConfig& cfg = *config_;

  std::unique_lock<std::mutex> lock(mu_);
  QueryUsage& usage = usage_[query];

  // Per-query limits (per-node and global, user and total).
  int64_t new_user = usage.user + (user ? bytes : 0);
  int64_t new_total = usage.total + bytes;
  int64_t new_global_user = query->global_user() + (user ? bytes : 0);
  int64_t new_global_total = query->global_total() + bytes;
  Status limit_error;
  if (user && new_user > cfg.per_query_per_node_user) {
    limit_error = Status::ResourceExhausted(
        "query " + query->query_id() + " exceeded per-node user memory limit");
  } else if (new_total > cfg.per_query_per_node_total) {
    limit_error = Status::ResourceExhausted(
        "query " + query->query_id() +
        " exceeded per-node total memory limit");
  } else if (user && new_global_user > cfg.per_query_global_user) {
    limit_error = Status::ResourceExhausted(
        "query " + query->query_id() + " exceeded global user memory limit");
  } else if (new_global_total > cfg.per_query_global_total) {
    limit_error = Status::ResourceExhausted(
        "query " + query->query_id() + " exceeded global total memory limit");
  }
  if (!limit_error.ok()) {
    lock.unlock();
    query->Kill(limit_error);
    return limit_error;
  }

  auto commit = [&](bool in_reserved) {
    usage.user = new_user;
    usage.total = new_total;
    if (in_reserved) {
      usage.in_reserved += bytes;
      reserved_used_ += bytes;
    } else {
      general_used_ += bytes;
      peak_general_used_ = std::max(peak_general_used_, general_used_);
    }
    query->AddGlobal(user ? bytes : 0, bytes);
  };

  // 1. General pool.
  if (general_used_ + bytes <= cfg.per_worker_general) {
    commit(false);
    return Status::OK();
  }

  // 2. Revocation (spilling): ask spillable operators — the requester's
  // own first, then others on this worker — to free memory (§IV-F2).
  // Several passes: an operator that is mid-update skips its Revoke (its
  // lock is busy), so retry briefly before giving up.
  if (cfg.enable_spill && !revocables_.empty()) {
    lock.unlock();
    TraceRecorder* trace = query->trace();
    int64_t revoke_start = trace != nullptr ? trace->NowNanos() : 0;
    int64_t revokes_before = revocations_.load();
    for (int pass = 0; pass < 4; ++pass) {
      std::vector<std::pair<QueryMemory*, Revocable*>> targets;
      {
        std::lock_guard<std::mutex> relock(mu_);
        if (general_used_ + bytes <= cfg.per_worker_general) break;
        targets = revocables_;
      }
      std::stable_sort(targets.begin(), targets.end(),
                       [query](const auto& a, const auto& b) {
                         return (a.first == query) > (b.first == query);
                       });
      for (const auto& [q, revocable] : targets) {
        (void)q;
        {
          // Revoke() runs outside mu_ on a raw pointer; re-check the operator
          // is still registered and pin it so a concurrent
          // UnregisterRevocable (operator teardown) waits for us.
          std::lock_guard<std::mutex> relock(mu_);
          bool still_registered = false;
          for (const auto& entry : revocables_) {
            if (entry.second == revocable) {
              still_registered = true;
              break;
            }
          }
          if (!still_registered) continue;
          ++revoking_[revocable];
        }
        revocations_.fetch_add(1);
        revocable->Revoke();
        std::lock_guard<std::mutex> relock(mu_);
        auto revoking_it = revoking_.find(revocable);
        if (--revoking_it->second == 0) revoking_.erase(revoking_it);
        revoke_cv_.notify_all();
        if (general_used_ + bytes <= cfg.per_worker_general) break;
      }
      {
        std::lock_guard<std::mutex> relock(mu_);
        if (general_used_ + bytes <= cfg.per_worker_general) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (trace != nullptr) {
      // The reservation stalled here waiting for spills to free memory.
      trace->RecordSpan(
          "memory", "revoke_wait", worker_id_ + 1, 0, revoke_start,
          trace->NowNanos() - revoke_start,
          {{"bytes", std::to_string(bytes)},
           {"revokes", std::to_string(revocations_.load() - revokes_before)}});
    }
    lock.lock();
    // usage_ may have changed (releases during revoke); re-read.
    QueryUsage& usage2 = usage_[query];
    new_user = usage2.user + (user ? bytes : 0);
    new_total = usage2.total + bytes;
    if (general_used_ + bytes <= cfg.per_worker_general) {
      usage2.user = new_user;
      usage2.total = new_total;
      general_used_ += bytes;
      peak_general_used_ = std::max(peak_general_used_, general_used_);
      query->AddGlobal(user ? bytes : 0, bytes);
      return Status::OK();
    }
  }

  // 3. Reserved pool promotion: a single query cluster-wide may overflow
  // into the reserved pool.
  if (cfg.enable_reserved_pool &&
      (reserved_owner_ == nullptr || reserved_owner_ == query) &&
      reserved_used_ + bytes <= cfg.per_worker_reserved) {
    reserved_owner_ = query;
    commit(true);
    return Status::OK();
  }

  // 4. Kill. (Production Presto can instead stall other queries; killing
  // keeps this simulation deadlock-free and is the documented policy.)
  Status error = Status::ResourceExhausted(
      "worker " + std::to_string(worker_id_) +
      " out of memory (general pool exhausted; reserved pool " +
      (reserved_owner_ != nullptr ? "occupied" : "insufficient") + ")");
  lock.unlock();
  query->Kill(error);
  return error;
}

void WorkerMemory::Release(QueryMemory* query, int64_t bytes, bool user) {
  PRESTO_DCHECK(bytes >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = usage_.find(query);
  if (it == usage_.end()) return;
  QueryUsage& usage = it->second;
  int64_t from_reserved = std::min(bytes, usage.in_reserved);
  int64_t from_general = bytes - from_reserved;
  usage.in_reserved -= from_reserved;
  reserved_used_ -= from_reserved;
  general_used_ -= from_general;
  usage.total -= bytes;
  if (user) usage.user -= bytes;
  query->AddGlobal(user ? -bytes : 0, -bytes);
  if (reserved_owner_ == query && usage.in_reserved == 0) {
    // Query vacated the reserved pool; unblock it for others.
    bool any_reserved = false;
    for (const auto& [q, u] : usage_) {
      if (u.in_reserved > 0) {
        any_reserved = true;
        break;
      }
    }
    if (!any_reserved) reserved_owner_ = nullptr;
  }
  if (usage.total == 0 && usage.user == 0) usage_.erase(it);
}

void WorkerMemory::RegisterRevocable(QueryMemory* query,
                                     Revocable* revocable) {
  std::lock_guard<std::mutex> lock(mu_);
  revocables_.emplace_back(query, revocable);
}

void WorkerMemory::UnregisterRevocable(Revocable* revocable) {
  std::unique_lock<std::mutex> lock(mu_);
  revocables_.erase(
      std::remove_if(revocables_.begin(), revocables_.end(),
                     [revocable](const auto& entry) {
                       return entry.second == revocable;
                     }),
      revocables_.end());
  // The caller destroys the object next; drain any Revoke() already running.
  revoke_cv_.wait(lock, [this, revocable] {
    return revoking_.find(revocable) == revoking_.end();
  });
}

int64_t WorkerMemory::general_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return general_used_;
}

int64_t WorkerMemory::peak_general_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_general_used_;
}

int64_t WorkerMemory::reserved_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_used_;
}

const QueryMemory* WorkerMemory::reserved_owner() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_owner_;
}

}  // namespace presto
