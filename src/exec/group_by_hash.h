#ifndef PRESTOCPP_EXEC_GROUP_BY_HASH_H_
#define PRESTOCPP_EXEC_GROUP_BY_HASH_H_

#include <string>
#include <vector>

#include "types/type.h"
#include "vector/block.h"
#include "vector/decoded_block.h"

namespace presto {

/// Group-by hash table over typed key columns. Each page's keys are hashed
/// a column at a time (HashKeys, the same hash as joins and shuffles), and
/// the groups' keys are kept column-wise in flat typed arrays — flat memory
/// in the critical path per §V-A — so probing compares native values and
/// BuildKeyBlocks is a column copy-out. Group ids are dense, in insertion
/// order, so accumulators can use plain arrays. NULL keys form one group;
/// DOUBLE keys group -0.0 with 0.0 and NaN with the same NaN.
class GroupByHash {
 public:
  explicit GroupByHash(std::vector<TypeKind> key_types);

  /// Maps each row of `keys` to its group id, creating groups as needed.
  /// `keys` are the key columns (any encoding), all with `rows` rows.
  void ComputeGroupIds(const std::vector<BlockPtr>& keys, int64_t rows,
                       std::vector<int32_t>* group_ids);

  int64_t size() const { return static_cast<int64_t>(group_hashes_.size()); }

  /// Rebuilds the key columns for group ids [from, to).
  std::vector<BlockPtr> BuildKeyBlocks(int64_t from, int64_t to) const;

  int64_t MemoryBytes() const;

  /// Drops all groups (used by partial-aggregation flushes and spills).
  void Clear();

 private:
  /// One key column of every group, in group id order.
  struct KeyColumn {
    TypeKind type = TypeKind::kUnknown;
    std::vector<uint8_t> bools;
    std::vector<int64_t> longs;  // BIGINT, DATE
    std::vector<double> doubles;
    std::vector<int32_t> offsets{0};  // VARCHAR: group g is
    std::string bytes;                // bytes[offsets[g], offsets[g + 1])
    std::vector<uint8_t> nulls;       // empty until the first NULL key
  };
  /// Per-type KeyColumn access (compare, append, copy-out).
  struct Typed;

  int32_t FindOrInsert(const std::vector<DecodedBlock>& keys, int64_t row,
                       uint64_t hash);
  void Rehash();

  std::vector<KeyColumn> keys_;
  std::vector<uint64_t> group_hashes_;
  // Open-addressing table of group ids (-1 empty).
  std::vector<int32_t> table_;
  int64_t mask_ = 0;
  std::vector<uint64_t> row_hashes_;  // scratch, one page
};

}  // namespace presto

#endif  // PRESTOCPP_EXEC_GROUP_BY_HASH_H_
