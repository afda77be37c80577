#include "exec/group_by_hash.h"

#include <cstring>

#include "common/check.h"
#include "exec/keys.h"

namespace presto {

namespace {

constexpr size_t kInitialBuckets = 1024;  // power of two

// DOUBLE group keys are stored and compared with -0.0 folded into 0.0, bit
// for bit otherwise (so a NaN groups with the same NaN).
uint64_t DoubleKeyBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

struct GroupByHash::Typed {
  template <typename T>
  static bool Equals(const KeyColumn& col, int32_t group,
                     const DecodedBlock& d, int64_t row) {
    auto g = static_cast<size_t>(group);
    bool group_null = !col.nulls.empty() && col.nulls[g] != 0;
    bool row_null = d.IsNull(row);
    if (group_null || row_null) return group_null == row_null;
    T v = KeyAt<T>(d, row);
    if constexpr (std::is_same_v<T, uint8_t>) {
      return col.bools[g] == v;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return col.longs[g] == v;
    } else if constexpr (std::is_same_v<T, double>) {
      return DoubleKeyBits(col.doubles[g]) == DoubleKeyBits(v);
    } else {
      auto begin = static_cast<size_t>(col.offsets[g]);
      auto len = static_cast<size_t>(col.offsets[g + 1]) - begin;
      return std::string_view(col.bytes).substr(begin, len) == v;
    }
  }

  template <typename T>
  static void Append(KeyColumn* col, int64_t groups, const DecodedBlock& d,
                     int64_t row) {
    bool null = d.IsNull(row);
    if (null || !col->nulls.empty()) {
      col->nulls.resize(static_cast<size_t>(groups), 0);
      col->nulls.push_back(null ? 1 : 0);
    }
    T v = null ? T{} : KeyAt<T>(d, row);
    if constexpr (std::is_same_v<T, uint8_t>) {
      col->bools.push_back(v);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      col->longs.push_back(v);
    } else if constexpr (std::is_same_v<T, double>) {
      col->doubles.push_back(v == 0.0 ? 0.0 : v);
    } else {
      col->bytes.append(v.data(), v.size());
      col->offsets.push_back(static_cast<int32_t>(col->bytes.size()));
    }
  }

  template <typename T>
  static BlockPtr Build(const KeyColumn& col, int64_t from, int64_t to) {
    auto f = static_cast<size_t>(from);
    auto t = static_cast<size_t>(to);
    std::vector<uint8_t> nulls;
    if (!col.nulls.empty()) {
      nulls.assign(col.nulls.begin() + f, col.nulls.begin() + t);
    }
    if constexpr (std::is_same_v<T, uint8_t>) {
      return std::make_shared<ByteBlock>(
          col.type, std::vector<uint8_t>(col.bools.begin() + f,
                                         col.bools.begin() + t),
          std::move(nulls));
    } else if constexpr (std::is_same_v<T, int64_t>) {
      TypeKind type =
          col.type == TypeKind::kDate ? TypeKind::kDate : TypeKind::kBigint;
      return std::make_shared<LongBlock>(
          type, std::vector<int64_t>(col.longs.begin() + f,
                                     col.longs.begin() + t),
          std::move(nulls));
    } else if constexpr (std::is_same_v<T, double>) {
      return std::make_shared<DoubleBlock>(
          col.type, std::vector<double>(col.doubles.begin() + f,
                                        col.doubles.begin() + t),
          std::move(nulls));
    } else {
      std::vector<int32_t> offsets(col.offsets.begin() + f,
                                   col.offsets.begin() + t + 1);
      int32_t base = offsets.front();
      for (int32_t& o : offsets) o -= base;
      std::string bytes = col.bytes.substr(
          static_cast<size_t>(base), static_cast<size_t>(offsets.back()));
      return std::make_shared<VarcharBlock>(std::move(offsets),
                                            std::move(bytes),
                                            std::move(nulls));
    }
  }
};

GroupByHash::GroupByHash(std::vector<TypeKind> key_types)
    : table_(kInitialBuckets, -1), mask_(kInitialBuckets - 1) {
  keys_.resize(key_types.size());
  for (size_t k = 0; k < key_types.size(); ++k) keys_[k].type = key_types[k];
}

void GroupByHash::ComputeGroupIds(const std::vector<BlockPtr>& keys,
                                  int64_t rows,
                                  std::vector<int32_t>* group_ids) {
  PRESTO_DCHECK(keys.size() == keys_.size());
  std::vector<DecodedBlock> decoded(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) decoded[k].Decode(keys[k]);
  HashKeys(decoded, rows, &row_hashes_);
  group_ids->resize(static_cast<size_t>(rows));
  int32_t* ids = group_ids->data();
  const uint64_t* hashes = row_hashes_.data();

  // 1. Each row's candidate: the first group on its probe path with the
  // same hash, or -1 where the path reaches an empty slot.
  for (int64_t i = 0; i < rows; ++i) {
    auto bucket = static_cast<size_t>(hashes[i] & static_cast<uint64_t>(mask_));
    int32_t group;
    while ((group = table_[bucket]) >= 0 &&
           group_hashes_[static_cast<size_t>(group)] != hashes[i]) {
      bucket = (bucket + 1) & static_cast<size_t>(mask_);
    }
    ids[i] = group;
  }
  // 2. Verify candidates one key column at a time.
  for (size_t k = 0; k < keys_.size(); ++k) {
    DispatchKeyType(keys_[k].type, [&](auto tag) {
      using T = decltype(tag);
      for (int64_t i = 0; i < rows; ++i) {
        if (ids[i] >= 0 && !Typed::Equals<T>(keys_[k], ids[i], decoded[k], i)) {
          ids[i] = -1;
        }
      }
    });
  }
  // 3. New keys (and rows whose candidate was a hash collision), one row at
  // a time: a row may find the group an earlier row of this page created.
  for (int64_t i = 0; i < rows; ++i) {
    if (ids[i] < 0) ids[i] = FindOrInsert(decoded, i, hashes[i]);
  }
}

int32_t GroupByHash::FindOrInsert(const std::vector<DecodedBlock>& keys,
                                  int64_t row, uint64_t hash) {
  if (size() * 2 >= static_cast<int64_t>(table_.size())) Rehash();
  auto bucket = static_cast<size_t>(hash & static_cast<uint64_t>(mask_));
  for (;;) {
    int32_t group = table_[bucket];
    if (group < 0) {
      auto id = static_cast<int32_t>(size());
      for (size_t k = 0; k < keys_.size(); ++k) {
        DispatchKeyType(keys_[k].type, [&](auto tag) {
          Typed::Append<decltype(tag)>(&keys_[k], id, keys[k], row);
        });
      }
      group_hashes_.push_back(hash);
      table_[bucket] = id;
      return id;
    }
    if (group_hashes_[static_cast<size_t>(group)] == hash) {
      bool equal = true;
      for (size_t k = 0; k < keys_.size() && equal; ++k) {
        equal = DispatchKeyType(keys_[k].type, [&](auto tag) {
          return Typed::Equals<decltype(tag)>(keys_[k], group, keys[k], row);
        });
      }
      if (equal) return group;
    }
    bucket = (bucket + 1) & static_cast<size_t>(mask_);
  }
}

void GroupByHash::Rehash() {
  size_t new_size = table_.size() * 2;
  table_.assign(new_size, -1);
  mask_ = static_cast<int64_t>(new_size) - 1;
  for (size_t g = 0; g < group_hashes_.size(); ++g) {
    auto bucket =
        static_cast<size_t>(group_hashes_[g] & static_cast<uint64_t>(mask_));
    while (table_[bucket] >= 0) {
      bucket = (bucket + 1) & static_cast<size_t>(mask_);
    }
    table_[bucket] = static_cast<int32_t>(g);
  }
}

std::vector<BlockPtr> GroupByHash::BuildKeyBlocks(int64_t from,
                                                  int64_t to) const {
  std::vector<BlockPtr> out;
  out.reserve(keys_.size());
  for (const KeyColumn& col : keys_) {
    out.push_back(DispatchKeyType(col.type, [&](auto tag) {
      return Typed::Build<decltype(tag)>(col, from, to);
    }));
  }
  return out;
}

int64_t GroupByHash::MemoryBytes() const {
  size_t bytes = group_hashes_.size() * sizeof(uint64_t) +
                 table_.size() * sizeof(int32_t);
  for (const KeyColumn& col : keys_) {
    bytes += col.bools.size() + col.longs.size() * sizeof(int64_t) +
             col.doubles.size() * sizeof(double) +
             col.offsets.size() * sizeof(int32_t) + col.bytes.size() +
             col.nulls.size();
  }
  return static_cast<int64_t>(bytes);
}

void GroupByHash::Clear() {
  for (KeyColumn& col : keys_) {
    TypeKind type = col.type;
    col = KeyColumn();
    col.type = type;
  }
  group_hashes_.clear();
  table_.assign(kInitialBuckets, -1);
  mask_ = kInitialBuckets - 1;
}

}  // namespace presto
