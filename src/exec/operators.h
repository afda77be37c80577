#ifndef PRESTOCPP_EXEC_OPERATORS_H_
#define PRESTOCPP_EXEC_OPERATORS_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "exchange/http/exchange_http.h"
#include "exec/group_by_hash.h"
#include "exec/keys.h"
#include "exec/operator.h"
#include "exec/pages_index.h"
#include "exec/spiller.h"
#include "expr/aggregates.h"
#include "expr/page_processor.h"
#include "plan/plan_node.h"

namespace presto {

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Emits the literal rows of a ValuesNode once.
class ValuesOperator final : public Operator {
 public:
  ValuesOperator(std::unique_ptr<OperatorContext> ctx,
                 std::shared_ptr<const ValuesNode> node);
  bool needs_input() const override { return false; }
  Status AddInput(Page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return done_; }

 private:
  std::shared_ptr<const ValuesNode> node_;
  bool done_ = false;
};

/// Reads splits from the task's split queue through the connector Data
/// Source API (§IV-D3): blocked while no split is available, finished when
/// the coordinator declares no-more-splits and all assigned splits are read.
class TableScanOperator final : public Operator {
 public:
  TableScanOperator(std::unique_ptr<OperatorContext> ctx,
                    std::shared_ptr<const TableScanNode> node);
  bool needs_input() const override { return false; }
  Status AddInput(Page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return blocked_; }

  int64_t bytes_read() const { return bytes_read_; }
  int64_t splits_processed() const { return splits_processed_; }

 private:
  std::shared_ptr<const TableScanNode> node_;
  Connector* connector_ = nullptr;
  std::unique_ptr<DataSource> current_;
  bool finished_ = false;
  bool blocked_ = false;
  int64_t bytes_read_ = 0;
  int64_t splits_processed_ = 0;
};

/// Consumer end of a shuffle: pulls serialized frames from every producer
/// task of the source fragment. Two transports (NetworkConfig.transport):
/// kInProcess polls the producers' ExchangeBuffers directly with a
/// simulated network charge; kHttp long-polls each producer's exchange
/// server over a real localhost socket with the token/ack protocol and
/// retry (§IV-E2).
class RemoteSourceOperator final : public Operator {
 public:
  RemoteSourceOperator(std::unique_ptr<OperatorContext> ctx,
                       int source_fragment, int producer_tasks);
  bool needs_input() const override { return false; }
  Status AddInput(Page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return blocked_; }

 private:
  /// One in-process poll attempt against producer `i`; delivers via
  /// ready_pages_.
  Status PollInProcess(size_t i);
  /// One HTTP fetch attempt against producer `i`; decodes every returned
  /// frame into ready_pages_. Under task recovery (retain_for_replay on)
  /// fetch errors re-resolve the producer's endpoint: a moved or
  /// re-generationed endpoint re-opens the stream against the replacement
  /// (replaying from token 0 with duplicate frames dropped), anything else
  /// is tolerated until a patience deadline before propagating.
  Status FetchHttp(size_t i);
  /// Decodes all frames of a fetched body into ready_pages_, dropping the
  /// first `skip_frames` of them (already delivered before a producer
  /// replacement replayed the stream).
  Status DecodeFrames(const std::string& body, int64_t skip_frames);
  std::optional<Page> TakeReadyPage();

  int source_fragment_;
  int producer_tasks_;
  std::vector<std::shared_ptr<ExchangeBuffer>> buffers_;   // kInProcess
  std::vector<std::unique_ptr<ExchangeHttpClient>> clients_;  // kHttp
  std::deque<Page> ready_pages_;  // decoded, not yet delivered downstream
  std::vector<bool> done_;
  /// Per-producer fetch-error deadline (recovery mode): errors within the
  /// window read as "replacement in flight", past it they propagate.
  std::vector<std::optional<std::chrono::steady_clock::time_point>>
      error_deadlines_;
  size_t next_ = 0;
  bool finished_ = false;
  bool blocked_ = false;
};

/// In-task pipeline connectors (local shuffles, §IV-C4).
class LocalExchangeSourceOperator final : public Operator {
 public:
  LocalExchangeSourceOperator(std::unique_ptr<OperatorContext> ctx,
                              std::shared_ptr<LocalExchangeQueue> queue)
      : Operator(std::move(ctx)), queue_(std::move(queue)) {}
  bool needs_input() const override { return false; }
  Status AddInput(Page) override {
    return Status::Internal("source takes no input");
  }
  Result<std::optional<Page>> GetOutput() override {
    bool done = false;
    auto page = queue_->Poll(&done, ctx_->wakeup());
    blocked_ = !page.has_value() && !done;
    if (done) finished_ = true;
    if (page.has_value()) ctx_->rows_out.fetch_add(page->num_rows());
    return page.has_value() ? Result<std::optional<Page>>(std::move(page))
                            : Result<std::optional<Page>>(std::optional<Page>());
  }
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return blocked_; }

 private:
  std::shared_ptr<LocalExchangeQueue> queue_;
  bool finished_ = false;
  bool blocked_ = false;
};

class LocalExchangeSinkOperator final : public Operator {
 public:
  LocalExchangeSinkOperator(std::unique_ptr<OperatorContext> ctx,
                            std::shared_ptr<LocalExchangeQueue> queue)
      : Operator(std::move(ctx)), queue_(std::move(queue)) {}
  bool needs_input() const override { return !pending_.has_value(); }
  Status AddInput(Page page) override {
    ctx_->rows_in.fetch_add(page.num_rows());
    pending_ = std::move(page);
    return Status::OK();
  }
  void NoMoreInput() override { Operator::NoMoreInput(); }
  Result<std::optional<Page>> GetOutput() override {
    // Copy, not move: on a full queue the same page is retried once the
    // consumer's next pop wakes this driver.
    if (pending_.has_value() && queue_->TryPush(*pending_, ctx_->wakeup())) {
      ctx_->rows_out.fetch_add(pending_->num_rows());
      pending_.reset();
    }
    if (!pending_.has_value() && no_more_input_ && !finished_) {
      queue_->ProducerFinished();
      finished_ = true;
    }
    return std::optional<Page>();
  }
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return pending_.has_value(); }

 private:
  std::shared_ptr<LocalExchangeQueue> queue_;
  std::optional<Page> pending_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

/// Fused filter + projections over a PageProcessor (dictionary/RLE-aware,
/// §V-E).
class FilterProjectOperator final : public Operator {
 public:
  FilterProjectOperator(std::unique_ptr<OperatorContext> ctx, ExprPtr filter,
                        std::vector<ExprPtr> projections);
  bool needs_input() const override {
    return !pending_.has_value() && !no_more_input_;
  }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return no_more_input_ && !pending_.has_value(); }

  const PageProcessor::Stats& processor_stats() const {
    return processor_.stats();
  }

 private:
  PageProcessor processor_;
  std::optional<Page> pending_;
};

/// Grouped/global aggregation with partial flushing and spill-based memory
/// revocation (§IV-F2).
class HashAggregationOperator final : public Operator, public Revocable {
 public:
  HashAggregationOperator(std::unique_ptr<OperatorContext> ctx,
                          std::shared_ptr<const AggregateNode> node);
  ~HashAggregationOperator() override;

  bool needs_input() const override {
    return !no_more_input_ && !flush_pending_.has_value();
  }
  Status AddInput(Page page) override;
  void NoMoreInput() override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override;

  int64_t Revoke() override;
  int64_t spilled_bytes() const { return spiller_.spilled_bytes(); }

 private:
  Page BuildOutputPage(bool intermediate);
  Status MergeSpilledRuns();
  Status error_;

  std::shared_ptr<const AggregateNode> node_;
  std::vector<TypeKind> key_types_;
  GroupByHash groups_;
  std::vector<std::unique_ptr<Accumulator>> accumulators_;
  std::vector<int32_t> group_ids_;
  std::optional<Page> flush_pending_;  // partial-flush output
  bool output_done_ = false;
  bool finalized_ = false;
  Spiller spiller_;
  bool revocable_registered_ = false;
  int64_t partial_flush_bytes_ = 16 << 20;
  // Recursive + TryLockForRevoke in Revoke(): a reservation made while
  // holding the lock may synchronously revoke this same operator
  // (self-revocation), and cross-operator revocation cycles must not
  // deadlock.
  std::recursive_mutex revoke_mu_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Shared state between the build and probe pipelines of one hash join
/// within a task (Fig. 4). Probe drivers waiting for the build are woken by
/// Publish().
struct JoinBridge {
  /// Marks the table ready and wakes the waiting probes.
  void Publish() {
    std::vector<WakeupPtr> wake;
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.store(true);
      wake = waiters.Take();
    }
    FireAll(wake);
  }
  /// True if ready; otherwise `waiter` is fired by Publish().
  bool ReadyOrWait(const WakeupPtr& waiter) {
    if (ready.load()) return true;
    std::lock_guard<std::mutex> lock(mu);
    if (ready.load()) return true;
    waiters.Add(waiter);
    return false;
  }

  std::atomic<bool> ready{false};
  std::mutex mu;     // guards waiters
  WaitList waiters;  // probes waiting for the build
  std::vector<BlockPtr> columns;  // build columns + trailing null sentinel
  std::vector<int> key_columns;
  std::vector<DecodedBlock> keys;  // decoded key columns
  std::vector<uint64_t> hashes;    // HashKeys of each row
  int64_t rows = 0;                // excluding the sentinel
  std::vector<int32_t> heads;      // hash buckets -> first row in chain
  std::vector<int32_t> next;       // chain links
  uint64_t mask = 0;
  std::unique_ptr<std::atomic<uint8_t>[]> matched;  // right/full joins
};

class HashBuildOperator final : public Operator {
 public:
  HashBuildOperator(std::unique_ptr<OperatorContext> ctx,
                    std::shared_ptr<JoinBridge> bridge,
                    std::vector<TypeKind> types, std::vector<int> key_columns,
                    bool track_matched);
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override;
  void NoMoreInput() override;
  Result<std::optional<Page>> GetOutput() override {
    return std::optional<Page>();
  }
  bool IsFinished() override { return bridge_->ready.load(); }

 private:
  std::shared_ptr<JoinBridge> bridge_;
  PagesIndex index_;
  std::vector<int> key_columns_;
  bool track_matched_;
};

class HashProbeOperator final : public Operator {
 public:
  HashProbeOperator(std::unique_ptr<OperatorContext> ctx,
                    std::shared_ptr<const JoinNode> node,
                    std::shared_ptr<JoinBridge> bridge,
                    bool emit_unmatched_build);
  bool needs_input() const override {
    return bridge_->ready.load() && !probe_page_.has_value() &&
           !no_more_input_;
  }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override;
  bool IsBlocked() override {
    return !bridge_->ready.load() && !no_more_input_;
  }

 private:
  Result<std::optional<Page>> BuildOutput(
      const std::vector<int32_t>& probe_positions,
      std::vector<int32_t> build_positions);
  Result<std::optional<Page>> EmitUnmatchedBuild();
  /// Matches the next batch of probe rows: about 8192 output positions.
  void ProbeBatch(std::vector<int32_t>* probe_positions,
                  std::vector<int32_t>* build_positions);

  std::shared_ptr<const JoinNode> node_;
  std::shared_ptr<JoinBridge> bridge_;
  std::optional<Page> probe_page_;
  std::vector<DecodedBlock> probe_keys_;  // of probe_page_
  std::vector<uint64_t> probe_hashes_;    // HashKeys of probe_page_
  std::vector<uint8_t> probe_null_keys_;  // NullKeyRows of probe_page_
  int64_t probe_row_ = 0;
  bool emit_unmatched_build_;
  bool unmatched_emitted_ = false;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Sorting / limiting / windows
// ---------------------------------------------------------------------------

class OrderByOperator final : public Operator, public Revocable {
 public:
  OrderByOperator(std::unique_ptr<OperatorContext> ctx,
                  std::shared_ptr<const SortNode> node);
  ~OrderByOperator() override;
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override;
  void NoMoreInput() override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return output_done_; }
  int64_t Revoke() override;

 private:
  std::shared_ptr<const SortNode> node_;
  std::vector<TypeKind> types_;
  PagesIndex index_;
  Spiller spiller_;
  bool revocable_registered_ = false;
  std::recursive_mutex revoke_mu_;
  // Merge state after NoMoreInput.
  struct RunCursor {
    std::vector<Page> pages;
    size_t page = 0;
    int64_t row = 0;
    KeyComparator keys;  // over pages[page]
    int slot = -1;       // pages[page]'s index in the batch being gathered
    /// Skips exhausted pages; false once the run is drained.
    bool Valid(const std::vector<SortKey>& sort_keys);
  };
  std::vector<RunCursor> runs_;
  std::vector<int32_t> sorted_;  // in-memory sorted row order
  KeyComparator index_keys_;     // over index_.columns()
  size_t emit_pos_ = 0;
  bool sorted_ready_ = false;
  bool output_done_ = false;
  Status error_;
};

class TopNOperator final : public Operator {
 public:
  TopNOperator(std::unique_ptr<OperatorContext> ctx,
               std::shared_ptr<const TopNNode> node);
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return output_done_; }

 private:
  /// A candidate row: row `row` of pages_[page], the `seq`-th row seen.
  struct Entry {
    int32_t page;
    int32_t row;
    int64_t seq;
  };
  /// Key order, then arrival order (so ties keep the earlier row).
  bool Before(const Entry& a, const Entry& b) const;
  std::vector<RowRef> Refs() const;
  /// Gathers the heap's rows into one page.
  void Compact();

  std::shared_ptr<const TopNNode> node_;
  std::vector<TypeKind> types_;
  std::vector<Page> pages_;          // hold every row the heap references
  std::vector<KeyComparator> keys_;  // one per page
  std::vector<Entry> heap_;          // max-heap by Before: worst row on top
  int64_t retained_rows_ = 0;        // rows in pages_
  int64_t next_seq_ = 0;
  bool output_done_ = false;
};

class LimitOperator final : public Operator {
 public:
  LimitOperator(std::unique_ptr<OperatorContext> ctx, int64_t limit)
      : Operator(std::move(ctx)), remaining_(limit) {}
  bool needs_input() const override {
    return remaining_ > 0 && !pending_.has_value() && !no_more_input_;
  }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override {
    return (remaining_ <= 0 || no_more_input_) && !pending_.has_value();
  }

 private:
  int64_t remaining_;
  std::optional<Page> pending_;
};

class WindowOperator final : public Operator {
 public:
  WindowOperator(std::unique_ptr<OperatorContext> ctx,
                 std::shared_ptr<const WindowNode> node);
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return output_done_; }

 private:
  std::shared_ptr<const WindowNode> node_;
  std::vector<TypeKind> input_types_;
  PagesIndex index_;
  bool output_done_ = false;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Producer end of a shuffle: partitions pages, serializes each partition's
/// slice to a wire frame (encoding-preserving, compressed, checksummed), and
/// enqueues the frames into the per-consumer output buffers with
/// backpressure charged in wire bytes (§IV-E2).
class ExchangeSinkOperator final : public Operator {
 public:
  /// `live_sinks` counts sink instances across parallel drivers; the last
  /// one to finish closes the output buffers.
  ExchangeSinkOperator(std::unique_ptr<OperatorContext> ctx,
                       ExchangeKind kind, std::vector<int> partition_keys,
                       std::shared_ptr<std::atomic<int>> live_sinks);
  bool needs_input() const override {
    return pending_.empty() && !no_more_input_;
  }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return !pending_.empty(); }

 private:
  std::shared_ptr<ExchangeBuffer> Buffer(int partition);

  ExchangeKind kind_;
  std::vector<int> partition_keys_;
  int partitions_;
  std::vector<std::shared_ptr<ExchangeBuffer>> buffers_;
  std::vector<std::pair<int, PageCodec::Frame>> pending_;
  std::shared_ptr<std::atomic<int>> live_sinks_;
  int round_robin_next_ = 0;
  bool finished_ = false;
};

/// Streams final results into the client's ResultQueue; a full queue (slow
/// client) blocks the pipeline.
class OutputSinkOperator final : public Operator {
 public:
  explicit OutputSinkOperator(std::unique_ptr<OperatorContext> ctx)
      : Operator(std::move(ctx)) {}
  bool needs_input() const override {
    return !pending_.has_value() && !no_more_input_;
  }
  Status AddInput(Page page) override {
    ctx_->rows_in.fetch_add(page.num_rows());
    pending_ = std::move(page);
    return Status::OK();
  }
  Result<std::optional<Page>> GetOutput() override {
    // Copy, not move: a full result queue (slow client) retries the page
    // once the client's next pop wakes this driver.
    if (pending_.has_value() &&
        ctx_->runtime().results->TryPush(*pending_, ctx_->wakeup())) {
      ctx_->rows_out.fetch_add(pending_->num_rows());
      pending_.reset();
    }
    if (!pending_.has_value() && no_more_input_) finished_ = true;
    return std::optional<Page>();
  }
  bool IsFinished() override { return finished_; }
  bool IsBlocked() override { return pending_.has_value(); }

 private:
  std::optional<Page> pending_;
  bool finished_ = false;
};

/// Writes pages through the connector Data Sink API and emits the row count
/// at the end (the TableWrite contract).
class TableWriterOperator final : public Operator {
 public:
  TableWriterOperator(std::unique_ptr<OperatorContext> ctx,
                      std::shared_ptr<const TableWriteNode> node);
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override;
  Result<std::optional<Page>> GetOutput() override;
  bool IsFinished() override { return done_; }

  int64_t bytes_written() const { return bytes_written_; }

 private:
  std::shared_ptr<const TableWriteNode> node_;
  std::unique_ptr<DataSink> sink_;
  Status init_error_;
  bool done_ = false;
  bool emitted_ = false;
  int64_t bytes_written_ = 0;
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_OPERATORS_H_
