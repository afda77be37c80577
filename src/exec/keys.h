#ifndef PRESTOCPP_EXEC_KEYS_H_
#define PRESTOCPP_EXEC_KEYS_H_

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "plan/plan_node.h"
#include "vector/decoded_block.h"

namespace presto {

/// Typed key code shared by the keyed operators (group-by, hash join,
/// repartitioning, TopN, ORDER BY, window): keys are read column at a time
/// from DecodedBlocks with the type resolved once per column — no boxed
/// Values, no serialized key bytes, no per-row virtual calls (§V-A/§V-B).

/// Calls `fn(T{})` with the physical value type of `type`: uint8_t
/// (BOOLEAN), int64_t (BIGINT, DATE, and UNKNOWN, which is BIGINT-backed),
/// double (DOUBLE) or std::string_view (VARCHAR).
template <typename Fn>
decltype(auto) DispatchKeyType(TypeKind type, Fn&& fn) {
  switch (type) {
    case TypeKind::kBoolean:
      return fn(uint8_t{});
    case TypeKind::kBigint:
    case TypeKind::kDate:
    case TypeKind::kUnknown:
      return fn(int64_t{});
    case TypeKind::kDouble:
      return fn(double{});
    case TypeKind::kVarchar:
      return fn(std::string_view{});
  }
  PRESTO_UNREACHABLE();
}

/// Non-null value of row `i` as physical type T.
template <typename T>
T KeyAt(const DecodedBlock& d, int64_t i) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    return d.StringAt(i);
  } else {
    return d.ValueAt<T>(i);
  }
}

/// Hash of one non-null key value; equal to Value::Hash and Block::HashAt.
inline uint64_t KeyHash(uint8_t v) { return HashInt64(v); }
inline uint64_t KeyHash(int64_t v) {
  return HashInt64(static_cast<uint64_t>(v));
}
inline uint64_t KeyHash(double v) { return HashDouble(v); }
inline uint64_t KeyHash(std::string_view v) { return HashString(v); }

/// Sort order of two non-null key values (<0, 0, >0). DOUBLE orders NaN
/// above +Infinity and equal to itself, and -0.0 equal to 0.0, so the order
/// is a strict weak ordering (Value::Compare agrees).
template <typename T>
int CompareKeys(T a, T b) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    int c = a.compare(b);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    if (a < b) return -1;
    if (a > b) return 1;
    if constexpr (std::is_floating_point_v<T>) {
      bool a_nan = std::isnan(a);
      bool b_nan = std::isnan(b);
      if (a_nan != b_nan) return a_nan ? 1 : -1;
    }
    return 0;
  }
}

/// Decodes columns `channels` of `columns`.
std::vector<DecodedBlock> DecodeKeys(const std::vector<BlockPtr>& columns,
                                     const std::vector<int>& channels);

/// Hashes rows [0, rows) of the key columns into `hashes`, one column at a
/// time: hashes[i] = HashCombine(...HashCombine(HashCombine(0, h0), h1)...)
/// where hk is row i's Value::Hash in key column k (0 for NULL). This is
/// bit-identical to chaining Block::HashAt per row, which hash
/// repartitioning and the connectors' bucketing depend on.
void HashKeys(const std::vector<DecodedBlock>& keys, int64_t rows,
              std::vector<uint64_t>* hashes);

/// Sets (*null_rows)[i] to 1 where any key column is NULL at row i, for
/// rows [0, rows). Leaves `null_rows` empty when no key column can hold a
/// NULL.
void NullKeyRows(const std::vector<DecodedBlock>& keys, int64_t rows,
                 std::vector<uint8_t>* null_rows);

/// Keeps the candidate pairs (probe_rows[i], build_rows[i]), i < n, whose
/// non-null keys are SQL-equal in one key column (DOUBLE: NaN equals
/// nothing, -0.0 equals 0.0), compacting both arrays in place. Returns the
/// number kept.
size_t RetainEqualKeys(const DecodedBlock& probe, const DecodedBlock& build,
                       int32_t* probe_rows, int32_t* build_rows, size_t n);

/// Orders rows by a list of sort keys. Built once per page or index: each
/// key column is decoded once and bound to the compare function of its
/// type, so comparing two rows neither boxes nor switches on types. NULLs
/// sort last for ASC and first for DESC (DESC negates the whole order);
/// DOUBLE orders as CompareKeys.
class KeyComparator {
 public:
  KeyComparator() = default;
  KeyComparator(const std::vector<BlockPtr>& columns,
                const std::vector<SortKey>& keys);

  /// Three-way order of row `a` of these columns against row `b` of
  /// `other`'s, which must be built with the same keys over the same types.
  int Compare(int64_t a, const KeyComparator& other, int64_t b) const {
    for (size_t k = 0; k < columns_.size(); ++k) {
      const Column& col = columns_[k];
      int c = col.compare(col.data, a, other.columns_[k].data, b);
      if (c != 0) return col.ascending ? c : -c;
    }
    return 0;
  }
  int Compare(int64_t a, int64_t b) const { return Compare(a, *this, b); }

  /// Stable sort of `positions` (rows of these columns) into key order, a
  /// key column at a time: by the first key, then each run of equal values
  /// by the next.
  void Sort(std::vector<int32_t>* positions) const;

 private:
  void SortRange(int32_t* positions, size_t n, size_t key) const;

  using CompareFn = int (*)(const DecodedBlock&, int64_t, const DecodedBlock&,
                            int64_t);
  struct Column {
    DecodedBlock data;
    CompareFn compare = nullptr;
    bool ascending = true;
  };
  std::vector<Column> columns_;
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_KEYS_H_
