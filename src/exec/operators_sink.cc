#include "exec/operators.h"

#include <chrono>

#include "common/fault_injection.h"
#include "exec/keys.h"

namespace presto {

namespace {

/// Serializes one partition's slice and charges the wall time to the
/// operator's serde counter (shown as "serde" in EXPLAIN ANALYZE).
PageCodec::Frame EncodeTimed(const PageCodec& codec, const Page& page,
                             OperatorContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  PageCodec::Frame frame = codec.Encode(page);
  ctx->serde_nanos.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return frame;
}

}  // namespace

// ---- ExchangeSinkOperator ----

ExchangeSinkOperator::ExchangeSinkOperator(
    std::unique_ptr<OperatorContext> ctx, ExchangeKind kind,
    std::vector<int> partition_keys,
    std::shared_ptr<std::atomic<int>> live_sinks)
    : Operator(std::move(ctx)),
      kind_(kind),
      partition_keys_(std::move(partition_keys)),
      partitions_(ctx_->spec().consumer_partitions),
      live_sinks_(std::move(live_sinks)) {
  const TaskSpec& spec = ctx_->spec();
  ctx_->runtime().exchange->CreateOutputBuffers(
      spec.query_id, spec.fragment_id, spec.task_index, partitions_,
      ctx_->runtime().exchange_buffer_bytes, spec.generation);
  buffers_.resize(static_cast<size_t>(partitions_));
}

std::shared_ptr<ExchangeBuffer> ExchangeSinkOperator::Buffer(int partition) {
  auto& buffer = buffers_[static_cast<size_t>(partition)];
  if (buffer == nullptr) {
    const TaskSpec& spec = ctx_->spec();
    buffer = ctx_->runtime().exchange->GetBuffer(
        {spec.query_id, spec.fragment_id, spec.task_index, partition});
    PRESTO_CHECK(buffer != nullptr);
  }
  return buffer;
}

Status ExchangeSinkOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  const PageCodec& codec = ctx_->runtime().exchange->codec();
  switch (kind_) {
    case ExchangeKind::kGather:
      pending_.emplace_back(0, EncodeTimed(codec, page, ctx_.get()));
      break;
    case ExchangeKind::kBroadcast: {
      // One serialization, N cheap frame copies — the whole point of
      // shipping serialized bytes instead of Page objects.
      PageCodec::Frame frame = EncodeTimed(codec, page, ctx_.get());
      for (int p = 0; p < partitions_; ++p) {
        pending_.emplace_back(p, frame);
      }
      break;
    }
    case ExchangeKind::kRoundRobin: {
      int active = partitions_;
      if (ctx_->runtime().active_output_partitions != nullptr) {
        active = std::max(
            1, std::min(partitions_,
                        ctx_->runtime().active_output_partitions->load()));
      }
      round_robin_next_ = (round_robin_next_ + 1) % active;
      pending_.emplace_back(round_robin_next_,
                            EncodeTimed(codec, page, ctx_.get()));
      break;
    }
    case ExchangeKind::kRepartition: {
      // Hash-partition rows (§IV-C3).
      int64_t rows = page.num_rows();
      std::vector<uint64_t> hashes;
      HashKeys(DecodeKeys(page.blocks(), partition_keys_), rows, &hashes);
      std::vector<std::vector<int32_t>> positions(
          static_cast<size_t>(partitions_));
      for (int64_t i = 0; i < rows; ++i) {
        auto p = static_cast<size_t>(
            hashes[static_cast<size_t>(i)] %
            static_cast<uint64_t>(partitions_));
        positions[p].push_back(static_cast<int32_t>(i));
      }
      for (int p = 0; p < partitions_; ++p) {
        auto& pos = positions[static_cast<size_t>(p)];
        if (pos.empty()) continue;
        Page slice = page.CopyPositions(pos.data(),
                                        static_cast<int64_t>(pos.size()));
        pending_.emplace_back(p, EncodeTimed(codec, slice, ctx_.get()));
      }
      break;
    }
  }
  return Status::OK();
}

Result<std::optional<Page>> ExchangeSinkOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  PRESTO_FAULT_POINT("exchange.enqueue");
  while (!pending_.empty()) {
    auto& [partition, frame] = pending_.front();
    // TryEnqueue copies the frame only on admission, so on a full buffer
    // (backpressure) retrying the same frame later is free.
    if (!Buffer(partition)->TryEnqueue(frame, ctx_->wakeup())) {
      // Backpressure: the consumer has not drained its buffer (§IV-E2);
      // its next ack wakes this driver.
      return std::optional<Page>();
    }
    if (TraceRecorder* trace = ctx_->runtime().trace) {
      trace->RecordInstant("exchange", "enqueue",
                           ctx_->spec().worker_id + 1, 0,
                           {{"partition", std::to_string(partition)},
                            {"rows", std::to_string(frame.rows)},
                            {"bytes", std::to_string(frame.wire_bytes())}});
    }
    ctx_->rows_out.fetch_add(frame.rows);
    pending_.erase(pending_.begin());
  }
  if (no_more_input_ && pending_.empty() && !finished_) {
    // The last sink instance across parallel drivers closes the buffers.
    if (live_sinks_ == nullptr || live_sinks_->fetch_sub(1) == 1) {
      for (int p = 0; p < partitions_; ++p) Buffer(p)->NoMorePages();
    }
    finished_ = true;
  }
  return std::optional<Page>();
}

// ---- TableWriterOperator ----

TableWriterOperator::TableWriterOperator(
    std::unique_ptr<OperatorContext> ctx,
    std::shared_ptr<const TableWriteNode> node)
    : Operator(std::move(ctx)), node_(std::move(node)) {
  auto connector = ctx_->runtime().catalog->Get(node_->connector());
  if (!connector.ok()) {
    init_error_ = connector.status();
    return;
  }
  // Writer id: globally unique per (fragment task); sinks create one file
  // (or equivalent) each, so writer parallelism controls output fragmentation
  // (§IV-E3).
  int writer_id = ctx_->spec().task_index;
  auto sink = (*connector)->CreateDataSink(*node_->table(), writer_id);
  if (!sink.ok()) {
    init_error_ = sink.status();
    return;
  }
  sink_ = std::move(*sink);
}

Status TableWriterOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!init_error_.ok()) return init_error_;
  ctx_->rows_in.fetch_add(page.num_rows());
  bytes_written_ += page.SizeInBytes();
  return sink_->Append(page);
}

Result<std::optional<Page>> TableWriterOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!init_error_.ok()) return init_error_;
  if (!no_more_input_ || emitted_) {
    if (no_more_input_ && emitted_) done_ = true;
    return std::optional<Page>();
  }
  PRESTO_ASSIGN_OR_RETURN(int64_t rows, sink_->Finish());
  emitted_ = true;
  done_ = true;
  ctx_->rows_out.fetch_add(1);
  return std::optional<Page>(Page({MakeBigintBlock({rows})}));
}

}  // namespace presto
