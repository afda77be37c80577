#ifndef PRESTOCPP_MEMORY_MEMORY_H_
#define PRESTOCPP_MEMORY_MEMORY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/wakeup.h"

namespace presto {

class TraceRecorder;

/// Cluster memory configuration (§IV-F2). All limits are bytes.
struct MemoryConfig {
  int64_t per_worker_general = 256LL << 20;
  int64_t per_worker_reserved = 64LL << 20;
  /// Per-query limits: user memory per node and aggregated across nodes.
  int64_t per_query_per_node_user = 128LL << 20;
  int64_t per_query_global_user = 1LL << 30;
  /// Per-query total (user + system) limits.
  int64_t per_query_per_node_total = 192LL << 20;
  int64_t per_query_global_total = 2LL << 30;
  /// Whether exhaustion triggers revocation (spilling) before killing.
  bool enable_spill = true;
  /// Whether a single query may overflow into the reserved pool.
  bool enable_reserved_pool = true;
};

/// A spillable operator registers a Revocable with its worker's pool; under
/// memory pressure the pool invokes Revoke(), which must free memory (by
/// spilling state to disk) and return the number of bytes released.
class Revocable {
 public:
  virtual ~Revocable() = default;
  virtual int64_t Revoke() = 0;
};

/// Takes a spillable operator's lock for Revoke(), waiting up to 20 ms
/// (about one page of input) while the operator is busy on another thread;
/// false if it stayed busy. Skipping a busy operator at once lost every
/// race against one that is fed continuously, and the query ran out of
/// memory without spilling; the bound keeps cross-operator revocation
/// cycles from deadlocking. Polls: this runs only under memory pressure.
template <typename Lock>
bool TryLockForRevoke(Lock& lock) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(20);
  while (!lock.try_lock()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Per-query memory ledger shared by all workers (global limits) plus the
/// kill switch: when a query exceeds its limits it is marked killed and all
/// its drivers terminate with the recorded reason.
class QueryMemory {
 public:
  QueryMemory(std::string query_id, const MemoryConfig* config)
      : query_id_(std::move(query_id)), config_(config) {}

  const std::string& query_id() const { return query_id_; }
  const MemoryConfig& config() const { return *config_; }

  int64_t global_user() const { return global_user_.load(); }
  int64_t global_total() const { return global_total_.load(); }
  int64_t peak_user() const { return peak_user_.load(); }

  void AddGlobal(int64_t user_delta, int64_t total_delta) {
    int64_t u = global_user_.fetch_add(user_delta) + user_delta;
    global_total_.fetch_add(total_delta);
    int64_t peak = peak_user_.load();
    while (u > peak && !peak_user_.compare_exchange_weak(peak, u)) {
    }
  }

  /// Marks the query failed; the first reason wins. Wakes every driver
  /// registered with OnKill, so a parked driver observes the kill at once.
  void Kill(const Status& reason);
  /// Registers a driver to wake on Kill (a no-op once killed).
  void OnKill(const WakeupPtr& waiter);
  bool killed() const { return killed_.load(); }
  Status kill_reason() const;

  /// Per-query trace recorder for memory events (revocation waits); may be
  /// null. Set once by the coordinator before tasks launch.
  void set_trace(TraceRecorder* trace) { trace_.store(trace); }
  TraceRecorder* trace() const { return trace_.load(); }

 private:
  std::string query_id_;
  const MemoryConfig* config_;
  std::atomic<int64_t> global_user_{0};
  std::atomic<int64_t> global_total_{0};
  std::atomic<int64_t> peak_user_{0};
  std::atomic<bool> killed_{false};
  std::atomic<TraceRecorder*> trace_{nullptr};
  mutable std::mutex mu_;
  Status kill_reason_;
  WaitList kill_waiters_;
};

/// Per-worker memory pools (§IV-F2): a general pool shared by all queries
/// and a reserved pool that at most one query cluster-wide may occupy once
/// the general pool is exhausted. Reservation order on pressure:
///   general pool -> revocation (spilling) -> reserved-pool promotion ->
///   kill the query.
class WorkerMemory {
 public:
  WorkerMemory(const MemoryConfig* config, int worker_id)
      : config_(config), worker_id_(worker_id) {}

  /// Reserves `bytes` of user or system memory for `query`.
  Status Reserve(QueryMemory* query, int64_t bytes, bool user);

  /// Releases memory previously reserved.
  void Release(QueryMemory* query, int64_t bytes, bool user);

  /// Registers/unregisters a spillable operator for revocation.
  /// UnregisterRevocable blocks until any in-flight Revoke() on the same
  /// object has returned, so the caller may destroy it immediately after.
  void RegisterRevocable(QueryMemory* query, Revocable* revocable);
  void UnregisterRevocable(Revocable* revocable);

  int64_t general_used() const;
  int64_t reserved_used() const;
  /// High-water mark of the general pool since startup.
  int64_t peak_general_used() const;
  /// Query currently promoted to the reserved pool (nullptr if none).
  const QueryMemory* reserved_owner() const;

  int64_t revocations() const { return revocations_.load(); }

 private:
  struct QueryUsage {
    int64_t user = 0;
    int64_t total = 0;
    int64_t in_reserved = 0;
  };

  const MemoryConfig* config_;
  int worker_id_;
  mutable std::mutex mu_;
  int64_t general_used_ = 0;
  int64_t peak_general_used_ = 0;
  int64_t reserved_used_ = 0;
  QueryMemory* reserved_owner_ = nullptr;
  std::map<QueryMemory*, QueryUsage> usage_;
  std::vector<std::pair<QueryMemory*, Revocable*>> revocables_;
  /// Revocables with a Revoke() call currently executing outside mu_
  /// (counted: two reservers may revoke the same operator concurrently).
  std::map<Revocable*, int> revoking_;
  std::condition_variable revoke_cv_;
  std::atomic<int64_t> revocations_{0};
};

}  // namespace presto

#endif  // PRESTOCPP_MEMORY_MEMORY_H_
