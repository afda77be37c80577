#include "exec/operators.h"

#include "exec/keys.h"
#include "expr/evaluator.h"
#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {

namespace {

uint64_t NextPowerOfTwo(uint64_t n) {
  uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---- HashBuildOperator ----

HashBuildOperator::HashBuildOperator(std::unique_ptr<OperatorContext> ctx,
                                     std::shared_ptr<JoinBridge> bridge,
                                     std::vector<TypeKind> types,
                                     std::vector<int> key_columns,
                                     bool track_matched)
    : Operator(std::move(ctx)),
      bridge_(std::move(bridge)),
      index_(std::move(types)),
      key_columns_(std::move(key_columns)),
      track_matched_(track_matched) {}

Status HashBuildOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  index_.AddPage(page);
  return ctx_->SetMemoryUsage(index_.bytes());
}

void HashBuildOperator::NoMoreInput() {
  Operator::NoMoreInput();
  // Build the table and publish the bridge (the hash-build pipeline of
  // Fig. 4 completing). num_rows() excludes the appended null sentinel,
  // which lives at column index `rows`.
  index_.Finish(/*extra_null_row=*/true);
  int64_t rows = index_.num_rows();
  bridge_->columns = index_.columns();
  bridge_->key_columns = key_columns_;
  bridge_->rows = rows;
  if (!key_columns_.empty() && rows > 0) {
    bridge_->keys = DecodeKeys(bridge_->columns, key_columns_);
    HashKeys(bridge_->keys, rows, &bridge_->hashes);
    std::vector<uint8_t> null_keys;
    NullKeyRows(bridge_->keys, rows, &null_keys);
    uint64_t buckets = NextPowerOfTwo(static_cast<uint64_t>(rows) * 2);
    bridge_->heads.assign(buckets, -1);
    bridge_->next.assign(static_cast<size_t>(rows), -1);
    bridge_->mask = buckets - 1;
    for (int64_t r = 0; r < rows; ++r) {
      auto row = static_cast<size_t>(r);
      if (!null_keys.empty() && null_keys[row]) continue;  // never match
      auto bucket = static_cast<size_t>(bridge_->hashes[row] & bridge_->mask);
      bridge_->next[row] = bridge_->heads[bucket];
      bridge_->heads[bucket] = static_cast<int32_t>(r);
    }
  }
  if (track_matched_ && rows > 0) {
    bridge_->matched =
        std::make_unique<std::atomic<uint8_t>[]>(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) bridge_->matched[r] = 0;
  }
  int64_t bytes = 0;
  for (const auto& col : bridge_->columns) bytes += col->SizeInBytes();
  (void)ctx_->SetMemoryUsage(
      bytes + static_cast<int64_t>(bridge_->heads.size() * 4 +
                                   bridge_->next.size() * 4 +
                                   bridge_->hashes.size() * 8));
  bridge_->Publish();
}

// ---- HashProbeOperator ----

HashProbeOperator::HashProbeOperator(std::unique_ptr<OperatorContext> ctx,
                                     std::shared_ptr<const JoinNode> node,
                                     std::shared_ptr<JoinBridge> bridge,
                                     bool emit_unmatched_build)
    : Operator(std::move(ctx)),
      node_(std::move(node)),
      bridge_(std::move(bridge)),
      emit_unmatched_build_(emit_unmatched_build) {}

Status HashProbeOperator::AddInput(Page page) {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  ctx_->rows_in.fetch_add(page.num_rows());
  if (!node_->left_keys().empty()) {
    probe_keys_ = DecodeKeys(page.blocks(), node_->left_keys());
    HashKeys(probe_keys_, page.num_rows(), &probe_hashes_);
    NullKeyRows(probe_keys_, page.num_rows(), &probe_null_keys_);
  }
  probe_page_ = std::move(page);
  probe_row_ = 0;
  return Status::OK();
}

Result<std::optional<Page>> HashProbeOperator::BuildOutput(
    const std::vector<int32_t>& probe_positions,
    std::vector<int32_t> build_positions) {
  if (probe_positions.empty()) return std::optional<Page>();
  auto rows = static_cast<int64_t>(probe_positions.size());
  // Probe columns: the page itself when every row matched once (a join on
  // a unique build key), else a copy of the matching positions.
  bool whole_page = rows == probe_page_->num_rows();
  for (int64_t i = 0; whole_page && i < rows; ++i) {
    whole_page = probe_positions[static_cast<size_t>(i)] == i;
  }
  std::vector<BlockPtr> blocks =
      whole_page ? probe_page_->blocks()
                 : probe_page_->CopyPositions(probe_positions.data(), rows)
                       .blocks();
  // Build columns: dictionary blocks over the build-side data — the paper's
  // compressed intermediate results for joins (§V-E). The trailing null
  // sentinel row represents non-matches in outer joins.
  for (size_t c = 0; c < bridge_->columns.size(); ++c) {
    blocks.push_back(std::make_shared<DictionaryBlock>(
        bridge_->columns[c], c + 1 < bridge_->columns.size()
                                 ? build_positions
                                 : std::move(build_positions)));
  }
  Page out(std::move(blocks), rows);
  // Residual filter (only on inner/cross joins; enforced at plan time).
  if (node_->residual_filter() != nullptr) {
    ExprEvaluator eval(node_->residual_filter(),
                       ctx_->runtime().eval_mode);
    PRESTO_ASSIGN_OR_RETURN(BlockPtr mask, eval.Eval(out));
    DecodedBlock d;
    d.Decode(mask);
    std::vector<int32_t> selected;
    for (int64_t i = 0; i < rows; ++i) {
      if (!d.IsNull(i) && d.ValueAt<uint8_t>(i) != 0) {
        selected.push_back(static_cast<int32_t>(i));
      }
    }
    if (selected.empty()) return std::optional<Page>();
    out = out.CopyPositions(selected.data(),
                            static_cast<int64_t>(selected.size()));
  }
  ctx_->rows_out.fetch_add(out.num_rows());
  return std::optional<Page>(std::move(out));
}

Result<std::optional<Page>> HashProbeOperator::EmitUnmatchedBuild() {
  unmatched_emitted_ = true;
  if (bridge_->rows == 0 || bridge_->matched == nullptr) {
    return std::optional<Page>();
  }
  std::vector<int32_t> build_positions;
  for (int64_t r = 0; r < bridge_->rows; ++r) {
    if (bridge_->matched[static_cast<size_t>(r)].load() == 0) {
      build_positions.push_back(static_cast<int32_t>(r));
    }
  }
  if (build_positions.empty()) return std::optional<Page>();
  auto rows = static_cast<int64_t>(build_positions.size());
  std::vector<BlockPtr> blocks;
  size_t probe_width =
      node_->output().size() - bridge_->columns.size();
  for (size_t c = 0; c < probe_width; ++c) {
    blocks.push_back(
        MakeAllNullBlock(node_->output().at(c).type, rows));
  }
  for (const auto& col : bridge_->columns) {
    blocks.push_back(std::make_shared<DictionaryBlock>(col, build_positions));
  }
  ctx_->rows_out.fetch_add(rows);
  return std::optional<Page>(Page(std::move(blocks), rows));
}

void HashProbeOperator::ProbeBatch(std::vector<int32_t>* probe_positions,
                                   std::vector<int32_t>* build_positions) {
  const bool preserve_probe = node_->join_type() == sql::JoinType::kLeft ||
                              node_->join_type() == sql::JoinType::kFull;
  const auto null_sentinel = static_cast<int32_t>(bridge_->rows);
  const int64_t batch_limit = 8192;
  const int64_t rows = probe_page_->num_rows();
  if (node_->left_keys().empty()) {
    // Cross join: match every build row.
    while (probe_row_ < rows &&
           static_cast<int64_t>(probe_positions->size()) < batch_limit) {
      auto row = static_cast<int32_t>(probe_row_++);
      for (int64_t b = 0; b < bridge_->rows; ++b) {
        probe_positions->push_back(row);
        build_positions->push_back(static_cast<int32_t>(b));
      }
      if (bridge_->rows == 0 && preserve_probe) {
        probe_positions->push_back(row);
        build_positions->push_back(null_sentinel);
      }
    }
    return;
  }
  // Candidates: the build rows on each probe row's chain with its hash.
  const int64_t first = probe_row_;
  probe_positions->reserve(static_cast<size_t>(batch_limit));
  build_positions->reserve(static_cast<size_t>(batch_limit));
  while (probe_row_ < rows &&
         static_cast<int64_t>(probe_positions->size()) +
                 (preserve_probe ? probe_row_ - first : 0) <
             batch_limit) {
    int64_t row = probe_row_++;
    auto r = static_cast<size_t>(row);
    if (bridge_->heads.empty() ||
        (!probe_null_keys_.empty() && probe_null_keys_[r])) {
      continue;  // null keys never match
    }
    uint64_t h = probe_hashes_[r];
    for (int32_t b = bridge_->heads[static_cast<size_t>(h & bridge_->mask)];
         b >= 0; b = bridge_->next[static_cast<size_t>(b)]) {
      if (bridge_->hashes[static_cast<size_t>(b)] == h) {
        probe_positions->push_back(static_cast<int32_t>(row));
        build_positions->push_back(b);
      }
    }
  }
  // Keep the candidates whose keys are equal, one key column at a time.
  size_t matches = probe_positions->size();
  for (size_t k = 0; k < probe_keys_.size() && matches > 0; ++k) {
    matches = RetainEqualKeys(probe_keys_[k], bridge_->keys[k],
                              probe_positions->data(),
                              build_positions->data(), matches);
  }
  probe_positions->resize(matches);
  build_positions->resize(matches);
  if (bridge_->matched != nullptr) {
    for (int32_t b : *build_positions) {
      bridge_->matched[static_cast<size_t>(b)].store(1);
    }
  }
  if (!preserve_probe) return;
  // Outer probe side: an unmatched row pairs with the null-sentinel row,
  // in probe order.
  std::vector<int32_t> probe_out;
  std::vector<int32_t> build_out;
  size_t m = 0;
  for (int64_t row = first; row < probe_row_; ++row) {
    auto r = static_cast<int32_t>(row);
    bool matched = false;
    for (; m < matches && (*probe_positions)[m] == r; ++m) {
      probe_out.push_back(r);
      build_out.push_back((*build_positions)[m]);
      matched = true;
    }
    if (!matched) {
      probe_out.push_back(r);
      build_out.push_back(null_sentinel);
    }
  }
  probe_positions->swap(probe_out);
  build_positions->swap(build_out);
}

Result<std::optional<Page>> HashProbeOperator::GetOutput() {
  PRESTO_RETURN_IF_ERROR(ctx_->CheckNotKilled());
  if (!bridge_->ReadyOrWait(ctx_->wakeup())) return std::optional<Page>();
  // Probe until a batch produces output or the page is exhausted: returning
  // nothing while the page is still pending would read as "no progress" to
  // the driver, which would park a runnable driver.
  while (probe_page_.has_value()) {
    std::vector<int32_t> probe_positions;
    std::vector<int32_t> build_positions;
    ProbeBatch(&probe_positions, &build_positions);
    PRESTO_ASSIGN_OR_RETURN(
        std::optional<Page> out,
        BuildOutput(probe_positions, std::move(build_positions)));
    if (probe_row_ >= probe_page_->num_rows()) {
      // The output holds its own references to what it uses of the page.
      probe_page_.reset();
      probe_row_ = 0;
    }
    if (out.has_value()) return out;
  }
  if (no_more_input_) {
    if (emit_unmatched_build_ && !unmatched_emitted_) {
      return EmitUnmatchedBuild();
    }
    finished_ = true;
  }
  return std::optional<Page>();
}

bool HashProbeOperator::IsFinished() {
  return finished_ ||
         (no_more_input_ && !probe_page_.has_value() &&
          (!emit_unmatched_build_ || unmatched_emitted_));
}

}  // namespace presto
