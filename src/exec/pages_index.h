#ifndef PRESTOCPP_EXEC_PAGES_INDEX_H_
#define PRESTOCPP_EXEC_PAGES_INDEX_H_

#include <vector>

#include "vector/block_builder.h"
#include "vector/page.h"

namespace presto {

/// Accumulates pages and, on Finish(), concatenates them into one flat
/// block per column for random access by row number. Backs hash-join build
/// sides, sorting, and window evaluation; rows are ordered with a
/// KeyComparator over columns().
class PagesIndex {
 public:
  explicit PagesIndex(std::vector<TypeKind> types)
      : types_(std::move(types)) {}

  void AddPage(const Page& page) {
    rows_ += page.num_rows();
    bytes_ += page.SizeInBytes();
    pages_.push_back(page);
  }

  int64_t num_rows() const { return rows_; }
  int64_t bytes() const { return bytes_; }
  const std::vector<TypeKind>& types() const { return types_; }
  const std::vector<Page>& pages() const { return pages_; }

  /// Concatenates into per-column blocks; `extra_null_row` appends one
  /// all-null row at index num_rows() (the outer-join null sentinel used by
  /// dictionary-encoded join output, §V-E).
  void Finish(bool extra_null_row);

  bool finished() const { return finished_; }
  const std::vector<BlockPtr>& columns() const { return columns_; }

  /// Releases all state (spill).
  void Clear() {
    pages_.clear();
    columns_.clear();
    rows_ = 0;
    bytes_ = 0;
    finished_ = false;
  }

 private:
  std::vector<TypeKind> types_;
  std::vector<Page> pages_;
  std::vector<BlockPtr> columns_;
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
  bool finished_ = false;
};

/// A row of one of several pages.
struct RowRef {
  int32_t page;
  int32_t row;
};

/// One flat page holding the rows `refs` point at, in order. Copies a column
/// at a time with the type resolved once per column; `types` are the
/// pages' column types.
Page GatherRows(const std::vector<Page>& pages,
                const std::vector<TypeKind>& types,
                const std::vector<RowRef>& refs);

}  // namespace presto

#endif  // PRESTOCPP_EXEC_PAGES_INDEX_H_
