#include "exec/operators.h"

namespace presto {

HashAggregationOperator::HashAggregationOperator(
    std::unique_ptr<OperatorContext> ctx,
    std::shared_ptr<const AggregateNode> node)
    : Operator(std::move(ctx)),
      node_(std::move(node)),
      key_types_([this] {
        std::vector<TypeKind> types;
        for (size_t k = 0; k < node_->group_keys().size(); ++k) {
          types.push_back(node_->output().at(k).type);
        }
        return types;
      }()),
      groups_(key_types_) {
  for (const auto& call : node_->aggregates()) {
    accumulators_.push_back(CreateAccumulator(call.signature));
  }
  // Partial aggregations flush adaptively; size the flush threshold to the
  // worker pool so constrained clusters flush early.
  if (ctx_->runtime().query_memory != nullptr) {
    partial_flush_bytes_ = std::min<int64_t>(
        partial_flush_bytes_,
        ctx_->runtime().query_memory->config().per_worker_general / 8);
  }
  // Final/single aggregations are spillable (§IV-F2); partial aggregations
  // adaptively flush instead.
  if (node_->step() != AggregationStep::kPartial &&
      ctx_->runtime().worker_memory != nullptr &&
      ctx_->runtime().query_memory != nullptr &&
      ctx_->runtime().query_memory->config().enable_spill) {
    ctx_->runtime().worker_memory->RegisterRevocable(
        ctx_->runtime().query_memory, this);
    revocable_registered_ = true;
  }
}

HashAggregationOperator::~HashAggregationOperator() {
  if (revocable_registered_) {
    ctx_->runtime().worker_memory->UnregisterRevocable(this);
  }
}

Status HashAggregationOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!error_.ok()) return error_;
  std::lock_guard<std::recursive_mutex> lock(revoke_mu_);
  ctx_->rows_in.fetch_add(page.num_rows());
  if (node_->group_keys().empty()) {
    // Global aggregations route every row to group 0.
    group_ids_.assign(static_cast<size_t>(page.num_rows()), 0);
  } else {
    std::vector<BlockPtr> keys;
    keys.reserve(node_->group_keys().size());
    for (int k : node_->group_keys()) {
      keys.push_back(page.block(static_cast<size_t>(k)));
    }
    groups_.ComputeGroupIds(keys, page.num_rows(), &group_ids_);
  }
  int64_t num_groups =
      node_->group_keys().empty() ? 1 : groups_.size();
  for (size_t a = 0; a < accumulators_.size(); ++a) {
    accumulators_[a]->Resize(num_groups);
    const auto& call = node_->aggregates()[a];
    BlockPtr arg = call.arg_column >= 0
                       ? page.block(static_cast<size_t>(call.arg_column))
                       : nullptr;
    if (node_->step() == AggregationStep::kFinal) {
      PRESTO_RETURN_IF_ERROR(
          accumulators_[a]->Merge(group_ids_.data(), arg, page.num_rows()));
    } else {
      accumulators_[a]->Add(group_ids_.data(), arg, page.num_rows());
    }
  }
  // Memory accounting + adaptive partial flush.
  int64_t bytes = groups_.MemoryBytes();
  for (const auto& acc : accumulators_) bytes += acc->MemoryBytes();
  PRESTO_RETURN_IF_ERROR(ctx_->SetMemoryUsage(bytes));
  if (node_->step() == AggregationStep::kPartial &&
      bytes > partial_flush_bytes_) {
    flush_pending_ = BuildOutputPage(/*intermediate=*/true);
    groups_.Clear();
    for (size_t a = 0; a < accumulators_.size(); ++a) {
      accumulators_[a] = CreateAccumulator(node_->aggregates()[a].signature);
    }
    PRESTO_RETURN_IF_ERROR(ctx_->SetMemoryUsage(0));
  }
  return Status::OK();
}

Page HashAggregationOperator::BuildOutputPage(bool intermediate) {
  int64_t num_groups = node_->group_keys().empty()
                           ? std::max<int64_t>(groups_.size(), 1)
                           : groups_.size();
  std::vector<BlockPtr> blocks;
  if (!node_->group_keys().empty()) {
    blocks = groups_.BuildKeyBlocks(0, num_groups);
  }
  for (size_t a = 0; a < accumulators_.size(); ++a) {
    accumulators_[a]->Resize(num_groups);
    blocks.push_back(intermediate
                         ? accumulators_[a]->BuildIntermediate(num_groups)
                         : accumulators_[a]->BuildFinal(num_groups));
  }
  ctx_->rows_out.fetch_add(num_groups);
  return Page(std::move(blocks), num_groups);
}

int64_t HashAggregationOperator::Revoke() {
  std::unique_lock<std::recursive_mutex> lock(revoke_mu_, std::defer_lock);
  if (!TryLockForRevoke(lock)) return 0;  // stayed busy on another thread
  if (finalized_ || groups_.size() == 0) return 0;
  if (node_->step() == AggregationStep::kPartial) return 0;
  // Spill current groups as an intermediate-format run.
  Page run = BuildOutputPage(/*intermediate=*/true);
  int64_t bytes = groups_.MemoryBytes();
  for (const auto& acc : accumulators_) bytes += acc->MemoryBytes();
  int64_t spilled_before = spiller_.spilled_bytes();
  int64_t serde_before = spiller_.serde_nanos();
  spiller_.SetTrace(ctx_->runtime().trace, ctx_->spec().worker_id + 1);
  auto r = spiller_.SpillRun({run});
  if (!r.ok()) {
    error_ = r.status();
    return 0;
  }
  ctx_->spilled_bytes.fetch_add(spiller_.spilled_bytes() - spilled_before);
  ctx_->serde_nanos.fetch_add(spiller_.serde_nanos() - serde_before);
  groups_.Clear();
  for (size_t a = 0; a < accumulators_.size(); ++a) {
    accumulators_[a] = CreateAccumulator(node_->aggregates()[a].signature);
  }
  (void)ctx_->SetMemoryUsage(0);
  return bytes;
}

Status HashAggregationOperator::MergeSpilledRuns() {
  // Re-absorb spilled runs by merging intermediate states. (Peak memory at
  // merge time is bounded by the number of distinct groups.)
  size_t num_keys = node_->group_keys().size();
  for (int run = 0; run < spiller_.num_runs(); ++run) {
    int64_t serde_before = spiller_.serde_nanos();
    PRESTO_ASSIGN_OR_RETURN(std::vector<Page> pages, spiller_.ReadRun(run));
    ctx_->serde_nanos.fetch_add(spiller_.serde_nanos() - serde_before);
    for (const Page& page : pages) {
      if (num_keys == 0) {
        group_ids_.assign(static_cast<size_t>(page.num_rows()), 0);
      } else {
        std::vector<BlockPtr> keys;
        for (size_t k = 0; k < num_keys; ++k) keys.push_back(page.block(k));
        groups_.ComputeGroupIds(keys, page.num_rows(), &group_ids_);
      }
      int64_t num_groups = num_keys == 0 ? 1 : groups_.size();
      for (size_t a = 0; a < accumulators_.size(); ++a) {
        accumulators_[a]->Resize(num_groups);
        PRESTO_RETURN_IF_ERROR(accumulators_[a]->Merge(
            group_ids_.data(), page.block(num_keys + a), page.num_rows()));
      }
    }
  }
  return Status::OK();
}

void HashAggregationOperator::NoMoreInput() { Operator::NoMoreInput(); }

Result<std::optional<Page>> HashAggregationOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!error_.ok()) return error_;
  if (flush_pending_.has_value()) {
    Page out = std::move(*flush_pending_);
    flush_pending_.reset();
    return std::optional<Page>(std::move(out));
  }
  if (!no_more_input_ || output_done_) return std::optional<Page>();
  std::lock_guard<std::recursive_mutex> lock(revoke_mu_);
  finalized_ = true;
  if (spiller_.num_runs() > 0) {
    PRESTO_RETURN_IF_ERROR(MergeSpilledRuns());
  }
  output_done_ = true;
  // Grouped aggregation with zero input produces zero rows; global
  // aggregation produces exactly one default row.
  if (!node_->group_keys().empty() && groups_.size() == 0) {
    return std::optional<Page>();
  }
  return std::optional<Page>(
      BuildOutputPage(node_->step() == AggregationStep::kPartial));
}

bool HashAggregationOperator::IsFinished() {
  return output_done_ && !flush_pending_.has_value();
}

}  // namespace presto
