#include "exec/driver.h"

#include "common/stopwatch.h"

namespace presto {

void Driver::SettleBlockedTime() {
  if (!blocked_recorded_) return;
  blocked_recorded_ = false;
  int64_t nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - blocked_since_)
                      .count();
  for (size_t i : blocked_ops_) {
    operators_[i]->ctx().blocked_nanos.fetch_add(nanos);
  }
  if (trace_ != nullptr && !blocked_ops_.empty()) {
    // One span for the whole parked interval, named after the first
    // blocked operator (typically the one holding up the pipeline).
    trace_->RecordSpan(
        "driver", "blocked:" + operators_[blocked_ops_.front()]->ctx().label(),
        trace_pid_, trace_tid_, blocked_since_trace_nanos_, nanos);
  }
  blocked_ops_.clear();
}

Result<Driver::State> Driver::Process(int64_t quantum_nanos,
                                      int64_t* cpu_nanos) {
  SettleBlockedTime();
  Stopwatch watch;
  for (;;) {
    bool progress = false;
    // Move pages between all adjacent operator pairs (§IV-E1 "every
    // iteration of the loop moves data between all pairs of operators that
    // can make progress").
    for (size_t i = 0; i + 1 < operators_.size(); ++i) {
      Operator& producer = *operators_[i];
      Operator& consumer = *operators_[i + 1];
      if (consumer.IsFinished()) continue;
      // Note: a "blocked" producer is still polled — GetOutput is the call
      // that re-evaluates (and clears) its blocked state.
      if (consumer.needs_input()) {
        int64_t t0 = watch.ElapsedNanos();
        auto page_or = producer.GetOutput();
        producer.ctx().get_output_nanos.fetch_add(watch.ElapsedNanos() - t0);
        if (!page_or.ok()) return page_or.status();
        std::optional<Page> page = std::move(page_or).value();
        if (page.has_value()) {
          int64_t page_bytes = page->SizeInBytes();
          producer.ctx().output_pages.fetch_add(1);
          producer.ctx().output_bytes.fetch_add(page_bytes);
          consumer.ctx().input_pages.fetch_add(1);
          consumer.ctx().input_bytes.fetch_add(page_bytes);
          t0 = watch.ElapsedNanos();
          Status added = consumer.AddInput(std::move(*page));
          consumer.ctx().add_input_nanos.fetch_add(watch.ElapsedNanos() - t0);
          PRESTO_RETURN_IF_ERROR(added);
          progress = true;
          continue;
        }
      }
      if (producer.IsFinished() && !no_more_signaled_[i + 1]) {
        consumer.NoMoreInput();
        no_more_signaled_[i + 1] = true;
        progress = true;
      }
    }
    // Drive the sink (flush buffered output, propagate completion).
    Operator& sink = *operators_.back();
    if (!sink.IsFinished()) {
      bool sink_needed_input = sink.needs_input();
      int64_t t0 = watch.ElapsedNanos();
      auto page_or = sink.GetOutput();
      sink.ctx().get_output_nanos.fetch_add(watch.ElapsedNanos() - t0);
      if (!page_or.ok()) return page_or.status();
      // Sinks produce no pages; a single-operator pipeline's "sink" may.
      // A sink that flushed its buffered output takes input again: that is
      // progress, or the driver would park with nothing to wake it.
      if (!sink_needed_input && sink.needs_input()) progress = true;
    }
    if (sink.IsFinished()) {
      *cpu_nanos += watch.ElapsedNanos();
      return State::kFinished;
    }
    if (!progress) {
      *cpu_nanos += watch.ElapsedNanos();
      // Remember which operators are parked so the wait (off this thread)
      // can be charged to them when the driver next runs.
      for (size_t i = 0; i < operators_.size(); ++i) {
        if (!operators_[i]->IsFinished() && operators_[i]->IsBlocked()) {
          blocked_ops_.push_back(i);
        }
      }
      if (blocked_ops_.empty()) blocked_ops_.push_back(operators_.size() - 1);
      blocked_since_ = std::chrono::steady_clock::now();
      if (trace_ != nullptr) blocked_since_trace_nanos_ = trace_->NowNanos();
      blocked_recorded_ = true;
      return State::kBlocked;
    }
    if (watch.ElapsedNanos() >= quantum_nanos) {
      *cpu_nanos += watch.ElapsedNanos();
      return State::kYielded;
    }
  }
}

}  // namespace presto
