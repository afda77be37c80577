#ifndef PRESTOCPP_EXEC_DRIVER_H_
#define PRESTOCPP_EXEC_DRIVER_H_

#include <chrono>
#include <memory>
#include <vector>

#include "exec/operator.h"

namespace presto {

/// The Presto driver loop (§IV-E1): owns one instance of a pipeline's
/// operator chain and moves pages between every pair of operators that can
/// make progress. More flexible than the Volcano pull model: the driver can
/// be brought to a known state quickly (yield points between iterations)
/// which makes cooperative multitasking practical.
///
/// The driver is also the central stats instrumentation point: it times
/// every AddInput/GetOutput call, counts pages/bytes crossing each operator
/// boundary, and attributes off-thread blocked time to the operators that
/// reported IsBlocked() — so individual operators only count rows.
///
/// A blocked operator registers the driver's wake-up handle with what it
/// waits on (every operator context shares the handle), so the executor
/// can park a kBlocked driver until that event fires.
class Driver {
 public:
  explicit Driver(std::vector<std::unique_ptr<Operator>> operators)
      : operators_(std::move(operators)),
        no_more_signaled_(operators_.size(), false),
        wakeup_(std::make_shared<Wakeup>()) {
    for (auto& op : operators_) op->ctx().set_wakeup(wakeup_);
  }

  enum class State {
    kYielded,   // quantum expired with progress still possible
    kBlocked,   // no operator can make progress right now
    kFinished,  // the sink finished
    kFailed,
  };

  /// Runs the loop until the deadline (steady-clock nanos budget), a block,
  /// or completion. CPU time consumed is added to *cpu_nanos.
  Result<State> Process(int64_t quantum_nanos, int64_t* cpu_nanos);

  Operator& sink() { return *operators_.back(); }
  const WakeupPtr& wakeup() const { return wakeup_; }
  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return operators_;
  }

  /// Identifies this driver in the query trace (one trace "thread" per
  /// driver). `trace` may be null (tracing off).
  void SetTraceIdentity(TraceRecorder* trace, int pid, int64_t tid) {
    trace_ = trace;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }
  TraceRecorder* trace() const { return trace_; }
  int trace_pid() const { return trace_pid_; }
  int64_t trace_tid() const { return trace_tid_; }

 private:
  // Charges the time since the last kBlocked return to the operators that
  // reported IsBlocked() then.
  void SettleBlockedTime();

  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<bool> no_more_signaled_;
  WakeupPtr wakeup_;
  std::vector<size_t> blocked_ops_;
  std::chrono::steady_clock::time_point blocked_since_;
  bool blocked_recorded_ = false;
  int64_t blocked_since_trace_nanos_ = 0;
  TraceRecorder* trace_ = nullptr;
  int trace_pid_ = 0;
  int64_t trace_tid_ = 0;
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_DRIVER_H_
