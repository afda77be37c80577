#include "exec/pages_index.h"

#include <utility>

#include "exec/keys.h"

namespace presto {

namespace {

void AppendKey(BlockBuilder* out, uint8_t v) { out->AppendBoolean(v != 0); }
void AppendKey(BlockBuilder* out, int64_t v) { out->AppendBigint(v); }
void AppendKey(BlockBuilder* out, double v) { out->AppendDouble(v); }
void AppendKey(BlockBuilder* out, std::string_view v) {
  out->AppendString(v);
}

// Appends `n` rows to `out`; row_at(i) names output row i as a (decoded
// column, row) pair.
template <typename RowAt>
void AppendColumn(int64_t n, RowAt row_at, BlockBuilder* out) {
  DispatchKeyType(out->type(), [&](auto tag) {
    using T = decltype(tag);
    for (int64_t i = 0; i < n; ++i) {
      auto [column, row] = row_at(i);
      if (column->IsNull(row)) {
        out->AppendNull();
      } else {
        AppendKey(out, KeyAt<T>(*column, row));
      }
    }
  });
}

}  // namespace

void PagesIndex::Finish(bool extra_null_row) {
  if (finished_) return;
  columns_.clear();
  for (size_t c = 0; c < types_.size(); ++c) {
    BlockBuilder builder(types_[c]);
    for (const auto& page : pages_) {
      DecodedBlock column;
      column.Decode(page.block(c));
      AppendColumn(
          page.num_rows(),
          [&column](int64_t i) { return std::pair(&column, i); }, &builder);
    }
    if (extra_null_row) builder.AppendNull();
    columns_.push_back(builder.Build());
  }
  pages_.clear();
  finished_ = true;
}

Page GatherRows(const std::vector<Page>& pages,
                const std::vector<TypeKind>& types,
                const std::vector<RowRef>& refs) {
  auto rows = static_cast<int64_t>(refs.size());
  std::vector<BlockPtr> blocks;
  blocks.reserve(types.size());
  std::vector<DecodedBlock> columns(pages.size());
  for (size_t c = 0; c < types.size(); ++c) {
    for (size_t p = 0; p < pages.size(); ++p) {
      columns[p].Decode(pages[p].block(c));
    }
    BlockBuilder builder(types[c]);
    AppendColumn(
        rows,
        [&](int64_t i) {
          const RowRef& ref = refs[static_cast<size_t>(i)];
          return std::pair(&columns[static_cast<size_t>(ref.page)],
                           static_cast<int64_t>(ref.row));
        },
        &builder);
    blocks.push_back(builder.Build());
  }
  return Page(std::move(blocks), rows);
}

}  // namespace presto
