#include "expr/page_processor.h"

#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {

namespace {

// If `expr` references exactly one column, returns it; otherwise nullopt.
std::optional<int> SingleReferencedColumn(const Expr& expr) {
  std::vector<int> cols;
  CollectReferencedColumns(expr, &cols);
  if (cols.size() == 1) return cols[0];
  return std::nullopt;
}

// Resolves lazy wrappers without materializing (only the wrapper chain).
const Block* PeekEncoding(const BlockPtr& block) { return block.get(); }

}  // namespace

PageProcessor::PageProcessor(ExprPtr filter, std::vector<ExprPtr> projections,
                             EvalMode mode)
    : filter_(std::move(filter)),
      projections_(std::move(projections)),
      mode_(mode) {
  dict_cache_.resize(projections_.size() + 1);
}

bool PageProcessor::ShouldProcessDictionary(int64_t dict_size,
                                            int64_t rows) const {
  if (dict_size <= rows) return true;
  // Speculate that unreferenced dictionary entries will be used by later
  // blocks sharing the dictionary, as long as history supports it: the
  // cumulative rows produced per dictionary entry processed stays >= 1.
  return dict_rows_produced_ >= dict_entries_processed_;
}

Result<BlockPtr> PageProcessor::EvalWithFastPaths(const ExprPtr& expr,
                                                  const Page& page,
                                                  int slot) {
  int64_t rows = page.num_rows();
  if (mode_ == EvalMode::kCompiled) {
    if (auto col = SingleReferencedColumn(*expr)) {
      const BlockPtr& block = page.block(static_cast<size_t>(*col));
      const Block* enc = PeekEncoding(block);
      if (enc->encoding() == BlockEncoding::kDictionary) {
        const auto* dict_block = static_cast<const DictionaryBlock*>(enc);
        const BlockPtr& dictionary = dict_block->dictionary();
        int64_t dict_size = dictionary->size();
        if (ShouldProcessDictionary(dict_size, rows)) {
          DictCacheEntry& cache = dict_cache_[static_cast<size_t>(slot + 1)];
          BlockPtr evaluated;
          if (cache.dictionary == dictionary.get() && cache.result) {
            evaluated = cache.result;
            ++stats_.dict_path_reuses;
          } else {
            // Evaluate the expression once per dictionary entry: remap the
            // referenced column to index 0 of a single-column page holding
            // the dictionary.
            std::vector<int> mapping(static_cast<size_t>(*col) + 1, -1);
            mapping[static_cast<size_t>(*col)] = 0;
            ExprPtr remapped = RemapColumns(expr, mapping);
            Page dict_page({dictionary});
            ExprEvaluator eval(remapped, mode_);
            Result<BlockPtr> result = eval.Eval(dict_page);
            // A failing entry may be one no row references: on error, fall
            // through and evaluate the rows themselves.
            if (result.ok()) {
              evaluated = std::move(*result);
              cache.dictionary = dictionary.get();
              cache.result = evaluated;
              dict_entries_processed_ += dict_size;
              ++stats_.dict_path_hits;
            }
          }
          if (evaluated != nullptr) {
            dict_rows_produced_ += rows;
            if (evaluated->encoding() == BlockEncoding::kFlat ||
                evaluated->encoding() == BlockEncoding::kVarchar) {
              return BlockPtr(std::make_shared<DictionaryBlock>(
                  evaluated, dict_block->indices()));
            }
            // The kernel returned an encoded block (e.g. RLE); flatten so
            // the dictionary wrap stays canonical.
            return BlockPtr(std::make_shared<DictionaryBlock>(
                evaluated->Flatten(), dict_block->indices()));
          }
        }
      } else if (enc->encoding() == BlockEncoding::kRle) {
        // Evaluate once over the run value and rewrap.
        const auto* rle = static_cast<const RleBlock*>(enc);
        std::vector<int> mapping(static_cast<size_t>(*col) + 1, -1);
        mapping[static_cast<size_t>(*col)] = 0;
        ExprPtr remapped = RemapColumns(expr, mapping);
        Page one_page({rle->value_block()});
        ExprEvaluator eval(remapped, mode_);
        PRESTO_ASSIGN_OR_RETURN(BlockPtr evaluated, eval.Eval(one_page));
        ++stats_.rle_path_hits;
        return BlockPtr(
            std::make_shared<RleBlock>(evaluated->Flatten(), rows));
      }
    }
  }
  ++stats_.flat_evals;
  ExprEvaluator eval(expr, mode_);
  return eval.Eval(page);
}

Result<Page> PageProcessor::Process(const Page& input) {
  ++stats_.pages_in;
  stats_.rows_in += input.num_rows();
  Page filtered = input;
  if (filter_ != nullptr) {
    PRESTO_ASSIGN_OR_RETURN(BlockPtr mask,
                            EvalWithFastPaths(filter_, input, -1));
    DecodedBlock d;
    d.Decode(mask);
    std::vector<int32_t> positions;
    positions.reserve(static_cast<size_t>(input.num_rows()));
    for (int64_t i = 0; i < input.num_rows(); ++i) {
      if (!d.IsNull(i) && d.ValueAt<uint8_t>(i) != 0) {
        positions.push_back(static_cast<int32_t>(i));
      }
    }
    if (static_cast<int64_t>(positions.size()) != input.num_rows()) {
      // Preserve laziness (§V-D): columns not yet materialized stay lazy —
      // the positions are applied only if the column is ever touched.
      auto shared_positions =
          std::make_shared<std::vector<int32_t>>(std::move(positions));
      auto n = static_cast<int64_t>(shared_positions->size());
      std::vector<BlockPtr> blocks;
      blocks.reserve(input.num_columns());
      for (size_t c = 0; c < input.num_columns(); ++c) {
        const BlockPtr& block = input.block(c);
        if (block->encoding() == BlockEncoding::kLazy &&
            !static_cast<const LazyBlock&>(*block).loaded()) {
          blocks.push_back(std::make_shared<LazyBlock>(
              block->type(), n, [block, shared_positions, n]() {
                return block->CopyPositions(shared_positions->data(), n);
              }));
        } else {
          blocks.push_back(block->CopyPositions(shared_positions->data(), n));
        }
      }
      filtered = Page(std::move(blocks), n);
    }
  }
  std::vector<BlockPtr> out;
  out.reserve(projections_.size());
  for (size_t p = 0; p < projections_.size(); ++p) {
    PRESTO_ASSIGN_OR_RETURN(
        BlockPtr b,
        EvalWithFastPaths(projections_[p], filtered, static_cast<int>(p)));
    out.push_back(std::move(b));
  }
  stats_.rows_out += filtered.num_rows();
  return Page(std::move(out), filtered.num_rows());
}

}  // namespace presto
