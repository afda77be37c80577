#include "exec/operators.h"

#include <chrono>

#include "common/fault_injection.h"
#include "vector/block_builder.h"

namespace presto {

// ---- ValuesOperator ----

ValuesOperator::ValuesOperator(std::unique_ptr<OperatorContext> ctx,
                               std::shared_ptr<const ValuesNode> node)
    : Operator(std::move(ctx)), node_(std::move(node)) {}

Status ValuesOperator::AddInput(Page) {
  return Status::Internal("Values takes no input");
}

Result<std::optional<Page>> ValuesOperator::GetOutput() {
  if (done_) return std::optional<Page>();
  done_ = true;
  std::vector<TypeKind> types;
  for (const auto& col : node_->output().columns()) types.push_back(col.type);
  PageBuilder builder(types);
  for (const auto& row : node_->rows()) builder.AppendRow(row);
  ctx_->rows_out.fetch_add(builder.num_rows());
  return std::optional<Page>(builder.Build());
}

// ---- TableScanOperator ----

TableScanOperator::TableScanOperator(std::unique_ptr<OperatorContext> ctx,
                                     std::shared_ptr<const TableScanNode> node)
    : Operator(std::move(ctx)), node_(std::move(node)) {
  auto connector = ctx_->runtime().catalog->Get(node_->connector());
  PRESTO_CHECK(connector.ok());
  connector_ = *connector;
}

Status TableScanOperator::AddInput(Page) {
  return Status::Internal("TableScan takes no input");
}

Result<std::optional<Page>> TableScanOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  PRESTO_FAULT_POINT("scan.next_page");
  auto queue_it = ctx_->runtime().split_queues->find(node_->id());
  PRESTO_CHECK(queue_it != ctx_->runtime().split_queues->end());
  SplitQueue& queue = queue_it->second;
  for (;;) {
    if (current_ == nullptr) {
      bool done = false;
      auto split = queue.Poll(&done, ctx_->wakeup());
      if (!split.has_value()) {
        blocked_ = !done;
        finished_ = done;
        return std::optional<Page>();
      }
      blocked_ = false;
      PRESTO_FAULT_POINT("scan.create_source");
      ScanSpec spec;
      spec.table = node_->table();
      spec.layout_id = node_->layout_id();
      spec.columns = node_->columns();
      spec.predicates = node_->predicates();
      PRESTO_ASSIGN_OR_RETURN(current_,
                              connector_->CreateDataSource(**split, spec));
      ++splits_processed_;
    }
    PRESTO_ASSIGN_OR_RETURN(std::optional<Page> page, current_->NextPage());
    if (!page.has_value()) {
      bytes_read_ += current_->bytes_read();
      current_.reset();
      continue;
    }
    ctx_->rows_out.fetch_add(page->num_rows());
    return page;
  }
}

// ---- RemoteSourceOperator ----

namespace {

// An HTTP fetch has no in-process event to wait on (the data arrives on a
// socket, and the fetch itself already long-polled), so a blocked HTTP
// consumer is re-run after this fixed delay.
constexpr std::chrono::microseconds kHttpRearmDelay{200};

}  // namespace

RemoteSourceOperator::RemoteSourceOperator(
    std::unique_ptr<OperatorContext> ctx, int source_fragment,
    int producer_tasks)
    : Operator(std::move(ctx)),
      source_fragment_(source_fragment),
      producer_tasks_(producer_tasks),
      buffers_(static_cast<size_t>(producer_tasks)),
      clients_(static_cast<size_t>(producer_tasks)),
      done_(static_cast<size_t>(producer_tasks), false),
      error_deadlines_(static_cast<size_t>(producer_tasks)) {}

Status RemoteSourceOperator::AddInput(Page) {
  return Status::Internal("RemoteSource takes no input");
}

Status RemoteSourceOperator::DecodeFrames(const std::string& body,
                                          int64_t skip_frames) {
  ExchangeManager* exchange = ctx_->runtime().exchange;
  size_t offset = 0;
  while (offset < body.size()) {
    PRESTO_FAULT_POINT("exchange.frame_decode");
    auto start = std::chrono::steady_clock::now();
    PRESTO_ASSIGN_OR_RETURN(Page page,
                            exchange->codec().Decode(body, &offset));
    ctx_->serde_nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (skip_frames > 0) {
      // Replayed frame this consumer already delivered downstream before a
      // producer replacement reset the stream: decode (to advance the
      // offset) and drop.
      --skip_frames;
      continue;
    }
    ready_pages_.push_back(std::move(page));
  }
  return Status::OK();
}

Status RemoteSourceOperator::PollInProcess(size_t i) {
  ExchangeManager* exchange = ctx_->runtime().exchange;
  const TaskSpec& spec = ctx_->spec();
  auto& buffer = buffers_[i];
  if (buffer == nullptr) {
    // Producer not started yet: woken when it creates its buffers.
    buffer = exchange->GetBuffer({spec.query_id, source_fragment_,
                                  static_cast<int>(i), spec.task_index},
                                 ctx_->wakeup());
    if (buffer == nullptr) return Status::OK();
  }
  bool finished = false;
  ExchangeBuffer::Clock::time_point arrives_at{};
  auto frame = buffer->Poll(&finished, ctx_->wakeup(), &arrives_at);
  if (finished) {
    done_[i] = true;
    return Status::OK();
  }
  if (frame.has_value()) {
    exchange->RecordTransfer(frame->wire_bytes());
    PRESTO_RETURN_IF_ERROR(DecodeFrames(frame->bytes, /*skip_frames=*/0));
  } else if (arrives_at != ExchangeBuffer::Clock::time_point{}) {
    ctx_->WakeAt(arrives_at);  // a frame is on the simulated wire
  }
  return Status::OK();
}

Status RemoteSourceOperator::FetchHttp(size_t i) {
  ExchangeManager* exchange = ctx_->runtime().exchange;
  const TaskSpec& spec = ctx_->spec();
  auto& client = clients_[i];
  if (client == nullptr) {
    auto endpoint = exchange->LookupTaskEndpointInfo(
        spec.query_id, source_fragment_, static_cast<int>(i));
    if (endpoint.port < 0) return Status::OK();  // not registered yet
    client = std::make_unique<ExchangeHttpClient>(
        exchange, endpoint.port,
        StreamId{spec.query_id, source_fragment_, static_cast<int>(i),
                 spec.task_index},
        endpoint.generation);
    if (ctx_->runtime().trace != nullptr) {
      client->SetTraceContext(ctx_->runtime().trace, spec.worker_id + 1,
                              /*tid=*/0);
    }
  }
  auto fetched = client->Fetch();
  if (!fetched.ok()) {
    if (!exchange->retain_for_replay()) return fetched.status();
    // Task recovery is live: the producer may have died and be on its way
    // to a replacement endpoint. Re-resolve; a changed (port, generation)
    // re-opens the stream there from token 0 (already-delivered frames
    // come back flagged as skip_frames and are dropped in DecodeFrames).
    auto endpoint = exchange->LookupTaskEndpointInfo(
        spec.query_id, source_fragment_, static_cast<int>(i));
    if (endpoint.port >= 0 && (endpoint.port != client->port() ||
                               endpoint.generation != client->generation())) {
      client->ResetForReplacement(endpoint.port, endpoint.generation);
      error_deadlines_[i].reset();
      return Status::OK();  // re-poll against the replacement
    }
    // Same endpoint still: tolerate the error for a patience window (the
    // coordinator needs a liveness verdict plus a recovery round before
    // the replacement registers). If this task itself gets superseded
    // instead, its kill switch ends the polling via CheckNotKilled.
    auto now = std::chrono::steady_clock::now();
    if (!error_deadlines_[i].has_value()) {
      error_deadlines_[i] = now + std::chrono::seconds(15);
      return Status::OK();
    }
    if (now < *error_deadlines_[i]) return Status::OK();
    return fetched.status();
  }
  error_deadlines_[i].reset();
  if (!fetched->body.empty()) {
    // Real socket transfer: record the wire bytes, no simulated sleep.
    exchange->RecordTransfer(static_cast<int64_t>(fetched->body.size()));
    PRESTO_RETURN_IF_ERROR(DecodeFrames(fetched->body, fetched->skip_frames));
  }
  if (fetched->complete) {
    // Stream drained. Tear the server-side buffer down eagerly — unless
    // frames are retained for replay: then the buffer must survive this
    // consumer so a replacement task can re-read it from token 0 after a
    // worker death, and the query-end RemoveQuery sweep does the cleanup.
    if (!exchange->retain_for_replay()) {
      (void)client->DeleteBuffer();
    }
    done_[i] = true;
  }
  return Status::OK();
}

std::optional<Page> RemoteSourceOperator::TakeReadyPage() {
  if (ready_pages_.empty()) return std::nullopt;
  Page page = std::move(ready_pages_.front());
  ready_pages_.pop_front();
  ctx_->rows_out.fetch_add(page.num_rows());
  blocked_ = false;
  return page;
}

Result<std::optional<Page>> RemoteSourceOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  PRESTO_FAULT_POINT("exchange.poll");
  if (auto page = TakeReadyPage(); page.has_value()) {
    return std::optional<Page>(std::move(*page));
  }
  const bool http = ctx_->runtime().exchange->network().transport ==
                    TransportMode::kHttp;
  for (int attempt = 0; attempt < producer_tasks_; ++attempt) {
    size_t i = next_;
    next_ = (next_ + 1) % static_cast<size_t>(producer_tasks_);
    if (done_[i]) continue;
    PRESTO_RETURN_IF_ERROR(http ? FetchHttp(i) : PollInProcess(i));
    if (auto page = TakeReadyPage(); page.has_value()) {
      return std::optional<Page>(std::move(*page));
    }
  }
  // Re-check completion over all producers.
  bool all_done = true;
  for (bool d : done_) {
    if (!d) {
      all_done = false;
      break;
    }
  }
  finished_ = all_done;
  blocked_ = !all_done;
  if (blocked_ && http) {
    ctx_->WakeAt(std::chrono::steady_clock::now() + kHttpRearmDelay);
  }
  return std::optional<Page>();
}

// ---- FilterProjectOperator ----

FilterProjectOperator::FilterProjectOperator(
    std::unique_ptr<OperatorContext> ctx, ExprPtr filter,
    std::vector<ExprPtr> projections)
    : Operator(std::move(ctx)),
      processor_(std::move(filter), std::move(projections),
                 ctx_->runtime().eval_mode) {}

Status FilterProjectOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  PRESTO_ASSIGN_OR_RETURN(Page out, processor_.Process(page));
  if (out.num_rows() > 0) {
    ctx_->rows_out.fetch_add(out.num_rows());
    pending_ = std::move(out);
  }
  return Status::OK();
}

Result<std::optional<Page>> FilterProjectOperator::GetOutput() {
  if (!pending_.has_value()) return std::optional<Page>();
  Page out = std::move(*pending_);
  pending_.reset();
  return std::optional<Page>(std::move(out));
}

}  // namespace presto
