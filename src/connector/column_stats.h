#ifndef PRESTOCPP_CONNECTOR_COLUMN_STATS_H_
#define PRESTOCPP_CONNECTOR_COLUMN_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hyperloglog.h"
#include "connector/connector.h"
#include "types/row_schema.h"
#include "types/value.h"
#include "vector/page.h"

namespace presto {

class DecodedBlock;

/// Mergeable table/column statistics (§IV-C). Connectors sketch each batch
/// of data once, as it is written (memcon: as an appended page is first
/// read), and merge the sketches, so reading statistics never rescans a
/// table. Per column it keeps:
///   - a HyperLogLog NDV sketch, plus the exact set of distinct hashes while
///     there are at most kExactDistinctLimit of them (small columns report
///     exact NDV, large ones the ~2.3%-error estimate);
///   - min and max, compared natively within each block and boxed once per
///     block;
///   - a null count; the row count is shared by all columns.
///
/// Merge() is commutative and associative: counts add, min/max combine,
/// HLL registers take the element-wise maximum and exact sets union (and
/// are dropped once the union passes the limit). Merging the builders of
/// two row sets therefore yields exactly the builder of their union.
class ColumnStatsBuilder {
 public:
  /// Columns with at most this many distinct values report them exactly.
  static constexpr size_t kExactDistinctLimit = 1024;

  ColumnStatsBuilder() = default;
  explicit ColumnStatsBuilder(const RowSchema& schema);

  /// Sketches every row of `page`, whose columns follow the schema.
  void Add(const Page& page);

  /// Folds `other` (built for the same schema) into this builder.
  void Merge(const ColumnStatsBuilder& other);

  /// Table statistics for every row added or merged so far, in
  /// O(columns x registers).
  TableStats Build() const;

  int64_t row_count() const { return rows_; }
  /// The NDV sketch of column `column` (tests compare registers).
  const HyperLogLog& distinct_sketch(size_t column) const {
    return columns_[column].hll;
  }

 private:
  // Distinct 64-bit hashes, counted exactly until there are more than
  // kExactDistinctLimit of them; then abandoned (overflowed).
  class ExactHashSet {
   public:
    void Insert(uint64_t hash);
    void Merge(const ExactHashSet& other);
    bool overflowed() const { return overflowed_; }
    int64_t size() const {
      return static_cast<int64_t>(used_) + (has_zero_ ? 1 : 0);
    }

   private:
    void Overflow();
    void Grow();

    std::vector<uint64_t> slots_;  // open addressing; 0 marks an empty slot
    size_t used_ = 0;
    bool has_zero_ = false;  // hash 0 cannot live in a slot
    bool overflowed_ = false;
  };

  struct Column {
    std::string name;
    TypeKind type = TypeKind::kUnknown;
    int64_t nulls = 0;
    HyperLogLog hll;
    ExactHashSet exact;
    Value min;  // null = no non-null value seen
    Value max;

    void Observe(uint64_t hash) {
      hll.AddHash(hash);
      if (!exact.overflowed()) exact.Insert(hash);
    }
    void Widen(const Value& lo, const Value& hi);
    void Add(const BlockPtr& block, int64_t rows);
    template <typename T>
    void AddFixed(const DecodedBlock& d, int64_t rows);
    void AddVarchar(const DecodedBlock& d, int64_t rows);
  };

  std::vector<Column> columns_;
  int64_t rows_ = 0;
};

}  // namespace presto

#endif  // PRESTOCPP_CONNECTOR_COLUMN_STATS_H_
