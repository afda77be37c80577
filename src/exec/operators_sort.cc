#include "exec/operators.h"

#include <algorithm>
#include <numeric>

#include "exec/keys.h"

namespace presto {

// ---- OrderByOperator ----

OrderByOperator::OrderByOperator(std::unique_ptr<OperatorContext> ctx,
                                 std::shared_ptr<const SortNode> node)
    : Operator(std::move(ctx)),
      node_(std::move(node)),
      types_([this] {
        std::vector<TypeKind> types;
        for (const auto& col : node_->output().columns()) {
          types.push_back(col.type);
        }
        return types;
      }()),
      index_(types_) {
  if (ctx_->runtime().worker_memory != nullptr &&
      ctx_->runtime().query_memory != nullptr &&
      ctx_->runtime().query_memory->config().enable_spill) {
    ctx_->runtime().worker_memory->RegisterRevocable(
        ctx_->runtime().query_memory, this);
    revocable_registered_ = true;
  }
}

OrderByOperator::~OrderByOperator() {
  if (revocable_registered_) {
    ctx_->runtime().worker_memory->UnregisterRevocable(this);
  }
}

Status OrderByOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!error_.ok()) return error_;
  std::lock_guard<std::recursive_mutex> lock(revoke_mu_);
  ctx_->rows_in.fetch_add(page.num_rows());
  index_.AddPage(page);
  return ctx_->SetMemoryUsage(index_.bytes());
}

int64_t OrderByOperator::Revoke() {
  std::unique_lock<std::recursive_mutex> lock(revoke_mu_, std::defer_lock);
  if (!TryLockForRevoke(lock)) return 0;  // stayed busy on another thread
  if (sorted_ready_ || index_.num_rows() == 0) return 0;
  // Sort the in-memory rows and spill them as a sorted run.
  index_.Finish(false);
  std::vector<int32_t> order(static_cast<size_t>(index_.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  KeyComparator(index_.columns(), node_->keys()).Sort(&order);
  Page sorted = Page(index_.columns(), index_.num_rows())
                    .CopyPositions(order.data(),
                                   static_cast<int64_t>(order.size()));
  int64_t freed = index_.bytes();
  int64_t spilled_before = spiller_.spilled_bytes();
  int64_t serde_before = spiller_.serde_nanos();
  spiller_.SetTrace(ctx_->runtime().trace, ctx_->spec().worker_id + 1);
  auto r = spiller_.SpillRun({sorted});
  if (!r.ok()) {
    error_ = r.status();
    return 0;
  }
  ctx_->spilled_bytes.fetch_add(spiller_.spilled_bytes() - spilled_before);
  ctx_->serde_nanos.fetch_add(spiller_.serde_nanos() - serde_before);
  index_.Clear();
  index_ = PagesIndex(types_);
  (void)ctx_->SetMemoryUsage(0);
  return freed;
}

void OrderByOperator::NoMoreInput() { Operator::NoMoreInput(); }

bool OrderByOperator::RunCursor::Valid(
    const std::vector<SortKey>& sort_keys) {
  while (page < pages.size() && row >= pages[page].num_rows()) {
    ++page;
    row = 0;
    slot = -1;
    if (page < pages.size()) {
      keys = KeyComparator(pages[page].blocks(), sort_keys);
    }
  }
  return page < pages.size();
}

Result<std::optional<Page>> OrderByOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!error_.ok()) return error_;
  if (!no_more_input_ || output_done_) return std::optional<Page>();
  std::lock_guard<std::recursive_mutex> lock(revoke_mu_);
  if (!sorted_ready_) {
    index_.Finish(false);
    sorted_.resize(static_cast<size_t>(index_.num_rows()));
    std::iota(sorted_.begin(), sorted_.end(), 0);
    index_keys_ = KeyComparator(index_.columns(), node_->keys());
    index_keys_.Sort(&sorted_);
    // Load spilled runs for the k-way merge.
    for (int run = 0; run < spiller_.num_runs(); ++run) {
      int64_t serde_before = spiller_.serde_nanos();
      PRESTO_ASSIGN_OR_RETURN(std::vector<Page> pages, spiller_.ReadRun(run));
      ctx_->serde_nanos.fetch_add(spiller_.serde_nanos() - serde_before);
      RunCursor cursor;
      cursor.pages = std::move(pages);
      if (!cursor.pages.empty()) {
        cursor.keys = KeyComparator(cursor.pages[0].blocks(), node_->keys());
      }
      runs_.push_back(std::move(cursor));
    }
    sorted_ready_ = true;
  }
  const int64_t batch = 4096;
  Page in_memory(index_.columns(), index_.num_rows());
  std::optional<Page> out;
  if (runs_.empty()) {
    // Nothing spilled: emit the sorted in-memory rows directly.
    int64_t n = std::min<int64_t>(
        batch, static_cast<int64_t>(sorted_.size() - emit_pos_));
    if (n > 0) out = in_memory.CopyPositions(sorted_.data() + emit_pos_, n);
    emit_pos_ += static_cast<size_t>(n);
  } else {
    // Merge the sorted runs and the sorted in-memory rows. On equal keys
    // the earlier run wins and the in-memory rows (the latest input) come
    // last, so the merge is stable.
    std::vector<Page> sources;
    std::vector<RowRef> refs;
    int in_memory_slot = -1;
    while (static_cast<int64_t>(refs.size()) < batch) {
      RunCursor* best = nullptr;
      for (RunCursor& cursor : runs_) {
        if (!cursor.Valid(node_->keys())) continue;
        if (best == nullptr ||
            cursor.keys.Compare(cursor.row, best->keys, best->row) < 0) {
          best = &cursor;
        }
      }
      bool take_in_memory =
          emit_pos_ < sorted_.size() &&
          (best == nullptr ||
           index_keys_.Compare(sorted_[emit_pos_], best->keys, best->row) < 0);
      if (take_in_memory) {
        if (in_memory_slot < 0) {
          in_memory_slot = static_cast<int>(sources.size());
          sources.push_back(in_memory);
        }
        refs.push_back({in_memory_slot, sorted_[emit_pos_++]});
      } else if (best != nullptr) {
        if (best->slot < 0) {
          best->slot = static_cast<int>(sources.size());
          sources.push_back(best->pages[best->page]);
        }
        refs.push_back({best->slot, static_cast<int32_t>(best->row++)});
      } else {
        break;
      }
    }
    for (RunCursor& cursor : runs_) cursor.slot = -1;
    if (!refs.empty()) out = GatherRows(sources, types_, refs);
  }
  if (!out.has_value()) {
    output_done_ = true;
    return std::optional<Page>();
  }
  ctx_->rows_out.fetch_add(out->num_rows());
  return out;
}

// ---- TopNOperator ----

TopNOperator::TopNOperator(std::unique_ptr<OperatorContext> ctx,
                           std::shared_ptr<const TopNNode> node)
    : Operator(std::move(ctx)),
      node_(std::move(node)),
      types_([this] {
        std::vector<TypeKind> types;
        for (const auto& col : node_->output().columns()) {
          types.push_back(col.type);
        }
        return types;
      }()) {}

bool TopNOperator::Before(const Entry& a, const Entry& b) const {
  int c = keys_[static_cast<size_t>(a.page)].Compare(
      a.row, keys_[static_cast<size_t>(b.page)], b.row);
  return c != 0 ? c < 0 : a.seq < b.seq;
}

Status TopNOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  const auto n = static_cast<size_t>(node_->n());
  if (n == 0 || page.num_rows() == 0) return Status::OK();
  auto slot = static_cast<int32_t>(pages_.size());
  keys_.emplace_back(page.blocks(), node_->keys());
  pages_.push_back(std::move(page));
  auto before = [this](const Entry& a, const Entry& b) { return Before(a, b); };
  const KeyComparator& keys = keys_.back();
  for (int64_t r = 0; r < pages_.back().num_rows(); ++r) {
    Entry entry{slot, static_cast<int32_t>(r), next_seq_++};
    if (heap_.size() < n) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), before);
      continue;
    }
    // One typed compare rejects a row that does not sort strictly before
    // the worst row kept (on a tie the earlier row stays).
    const Entry& worst = heap_.front();
    if (keys.Compare(r, keys_[static_cast<size_t>(worst.page)], worst.row) >=
        0) {
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), before);
    heap_.back() = entry;
    std::push_heap(heap_.begin(), heap_.end(), before);
  }
  // Retain only the page's rows that entered the heap.
  std::vector<Entry*> entered;
  for (Entry& e : heap_) {
    if (e.page == slot) entered.push_back(&e);
  }
  if (entered.empty()) {
    pages_.pop_back();
    keys_.pop_back();
  } else if (static_cast<int64_t>(entered.size()) < pages_.back().num_rows()) {
    std::sort(entered.begin(), entered.end(),
              [](const Entry* a, const Entry* b) { return a->row < b->row; });
    std::vector<int32_t> positions;
    positions.reserve(entered.size());
    for (Entry* e : entered) {
      positions.push_back(e->row);
      e->row = static_cast<int32_t>(positions.size() - 1);
    }
    pages_.back() = pages_.back().CopyPositions(
        positions.data(), static_cast<int64_t>(positions.size()));
    keys_.back() = KeyComparator(pages_.back().blocks(), node_->keys());
  }
  retained_rows_ += static_cast<int64_t>(entered.size());
  // Evicted rows still occupy their pages; once they are the majority,
  // gather the kept rows into one page.
  if (retained_rows_ > 2 * static_cast<int64_t>(heap_.size())) Compact();
  int64_t bytes = static_cast<int64_t>(heap_.size() * sizeof(Entry));
  for (const Page& p : pages_) bytes += p.SizeInBytes();
  return ctx_->SetMemoryUsage(bytes);
}

std::vector<RowRef> TopNOperator::Refs() const {
  std::vector<RowRef> refs;
  refs.reserve(heap_.size());
  for (const Entry& e : heap_) refs.push_back({e.page, e.row});
  return refs;
}

void TopNOperator::Compact() {
  Page kept = GatherRows(pages_, types_, Refs());
  for (size_t i = 0; i < heap_.size(); ++i) {
    heap_[i].page = 0;
    heap_[i].row = static_cast<int32_t>(i);
  }
  keys_.assign(1, KeyComparator(kept.blocks(), node_->keys()));
  pages_.assign(1, std::move(kept));
  retained_rows_ = static_cast<int64_t>(heap_.size());
}

Result<std::optional<Page>> TopNOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!no_more_input_ || output_done_) return std::optional<Page>();
  output_done_ = true;
  if (heap_.empty()) return std::optional<Page>();
  std::sort(heap_.begin(), heap_.end(),
            [this](const Entry& a, const Entry& b) { return Before(a, b); });
  Page out = GatherRows(pages_, types_, Refs());
  ctx_->rows_out.fetch_add(out.num_rows());
  return std::optional<Page>(std::move(out));
}

// ---- LimitOperator ----

Status LimitOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  if (page.num_rows() <= remaining_) {
    remaining_ -= page.num_rows();
    pending_ = std::move(page);
  } else {
    std::vector<int32_t> positions;
    for (int64_t i = 0; i < remaining_; ++i) {
      positions.push_back(static_cast<int32_t>(i));
    }
    pending_ = page.CopyPositions(positions.data(), remaining_);
    remaining_ = 0;
  }
  return Status::OK();
}

Result<std::optional<Page>> LimitOperator::GetOutput() {
  if (!pending_.has_value()) return std::optional<Page>();
  Page out = std::move(*pending_);
  pending_.reset();
  ctx_->rows_out.fetch_add(out.num_rows());
  return std::optional<Page>(std::move(out));
}

// ---- WindowOperator ----

WindowOperator::WindowOperator(std::unique_ptr<OperatorContext> ctx,
                               std::shared_ptr<const WindowNode> node)
    : Operator(std::move(ctx)),
      node_(std::move(node)),
      input_types_([this] {
        std::vector<TypeKind> types;
        const auto& input = node_->child()->output();
        for (const auto& col : input.columns()) types.push_back(col.type);
        return types;
      }()),
      index_(input_types_) {}

Status WindowOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  index_.AddPage(page);
  return ctx_->SetMemoryUsage(index_.bytes());
}

Result<std::optional<Page>> WindowOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!no_more_input_ || output_done_) return std::optional<Page>();
  output_done_ = true;
  index_.Finish(false);
  int64_t rows = index_.num_rows();
  if (rows == 0) return std::optional<Page>();

  // Order rows by (partition keys, order keys).
  std::vector<SortKey> sort_keys;
  for (int p : node_->partition_keys()) sort_keys.push_back({p, true});
  for (const auto& k : node_->order_keys()) sort_keys.push_back(k);
  std::vector<int32_t> order(static_cast<size_t>(rows));
  std::iota(order.begin(), order.end(), 0);
  KeyComparator(index_.columns(), sort_keys).Sort(&order);

  std::vector<SortKey> partition_keys;
  for (int p : node_->partition_keys()) partition_keys.push_back({p, true});
  const KeyComparator partition_cmp(index_.columns(), partition_keys);
  const KeyComparator order_cmp(index_.columns(), node_->order_keys());
  auto same_keys = [](const KeyComparator& keys, int32_t a, int32_t b) {
    return keys.Compare(a, b) == 0;
  };

  // Compute each window function into a builder aligned with `order`.
  std::vector<BlockBuilder> builders;
  for (const auto& fn : node_->functions()) {
    builders.emplace_back(fn.result_type);
  }

  size_t start = 0;
  auto n = static_cast<size_t>(rows);
  while (start < n) {
    size_t end = start + 1;
    while (end < n && same_keys(partition_cmp, order[start], order[end])) {
      ++end;
    }
    // Partition [start, end) in sorted order.
    for (size_t f = 0; f < node_->functions().size(); ++f) {
      const WindowFunction& fn = node_->functions()[f];
      BlockBuilder& builder = builders[f];
      switch (fn.kind) {
        case WindowFunction::Kind::kRowNumber: {
          for (size_t i = start; i < end; ++i) {
            builder.AppendBigint(static_cast<int64_t>(i - start + 1));
          }
          break;
        }
        case WindowFunction::Kind::kRank:
        case WindowFunction::Kind::kDenseRank: {
          int64_t rank = 0;
          int64_t dense = 0;
          for (size_t i = start; i < end; ++i) {
            if (i == start || !same_keys(order_cmp, order[i - 1], order[i])) {
              rank = static_cast<int64_t>(i - start + 1);
              ++dense;
            }
            builder.AppendBigint(
                fn.kind == WindowFunction::Kind::kRank ? rank : dense);
          }
          break;
        }
        case WindowFunction::Kind::kAggregate: {
          // Default SQL frame: RANGE UNBOUNDED PRECEDING .. CURRENT ROW
          // (including peers); with no ORDER BY the frame is the whole
          // partition.
          bool whole_partition = node_->order_keys().empty();
          int64_t count = 0;
          double sum = 0;
          bool sum_valid = false;
          Value min_v, max_v;
          auto accumulate = [&](size_t i) {
            if (fn.arg_column < 0) {
              ++count;
              return;
            }
            Value v = index_.columns()[static_cast<size_t>(fn.arg_column)]
                          ->GetValue(order[i]);
            if (v.is_null()) return;
            ++count;
            if (v.type() != TypeKind::kVarchar &&
                v.type() != TypeKind::kBoolean) {
              sum += v.AsDouble();
              sum_valid = true;
            }
            if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
            if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
          };
          auto emit_current = [&](int64_t repeat) {
            for (int64_t r = 0; r < repeat; ++r) {
              switch (fn.signature.kind) {
                case AggKind::kCountAll:
                case AggKind::kCount:
                  builder.AppendBigint(count);
                  break;
                case AggKind::kSum:
                  if (!sum_valid) {
                    builder.AppendNull();
                  } else if (fn.result_type == TypeKind::kBigint) {
                    builder.AppendBigint(static_cast<int64_t>(sum));
                  } else {
                    builder.AppendDouble(sum);
                  }
                  break;
                case AggKind::kAvg:
                  if (count == 0) {
                    builder.AppendNull();
                  } else {
                    builder.AppendDouble(sum / static_cast<double>(count));
                  }
                  break;
                case AggKind::kMin:
                  builder.AppendValue(min_v);
                  break;
                case AggKind::kMax:
                  builder.AppendValue(max_v);
                  break;
                default:
                  builder.AppendNull();
              }
            }
          };
          if (whole_partition) {
            for (size_t i = start; i < end; ++i) accumulate(i);
            emit_current(static_cast<int64_t>(end - start));
          } else {
            size_t i = start;
            while (i < end) {
              // Peer group [i, j).
              size_t j = i + 1;
              while (j < end && same_keys(order_cmp, order[i], order[j])) {
                ++j;
              }
              for (size_t k = i; k < j; ++k) accumulate(k);
              emit_current(static_cast<int64_t>(j - i));
              i = j;
            }
          }
          break;
        }
      }
    }
    start = end;
  }

  // Assemble output: input columns in sorted order + function columns.
  Page input_sorted = Page(index_.columns(), rows)
                          .CopyPositions(order.data(), rows);
  std::vector<BlockPtr> blocks = input_sorted.blocks();
  for (auto& builder : builders) blocks.push_back(builder.Build());
  ctx_->rows_out.fetch_add(rows);
  return std::optional<Page>(Page(std::move(blocks), rows));
}

}  // namespace presto
