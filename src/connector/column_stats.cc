#include "connector/column_stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "common/check.h"
#include "vector/decoded_block.h"

namespace presto {

namespace {

Value Box(TypeKind type, int64_t v) {
  return type == TypeKind::kDate ? Value::Date(v) : Value::Bigint(v);
}
Value Box(TypeKind, double v) { return Value::Double(v); }
Value Box(TypeKind, uint8_t v) { return Value::Boolean(v != 0); }

}  // namespace

// ---- ExactHashSet ----

void ColumnStatsBuilder::ExactHashSet::Insert(uint64_t hash) {
  if (overflowed_) return;
  if (hash == 0) {
    has_zero_ = true;
  } else {
    if (slots_.empty()) slots_.resize(16, 0);
    size_t mask = slots_.size() - 1;
    // Hashes are well mixed; their low bits index the table.
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      if (slots_[i] == hash) return;
      if (slots_[i] == 0) {
        slots_[i] = hash;
        ++used_;
        break;
      }
    }
    if (used_ * 2 > slots_.size()) Grow();
  }
  if (static_cast<size_t>(size()) > kExactDistinctLimit) Overflow();
}

void ColumnStatsBuilder::ExactHashSet::Merge(const ExactHashSet& other) {
  if (overflowed_) return;
  if (other.overflowed_) {
    Overflow();
    return;
  }
  if (other.has_zero_) Insert(0);
  for (uint64_t h : other.slots_) {
    if (h != 0) Insert(h);
  }
}

void ColumnStatsBuilder::ExactHashSet::Overflow() {
  overflowed_ = true;
  used_ = 0;
  has_zero_ = false;
  std::vector<uint64_t>().swap(slots_);
}

void ColumnStatsBuilder::ExactHashSet::Grow() {
  std::vector<uint64_t> old(slots_.size() * 2, 0);
  old.swap(slots_);
  size_t mask = slots_.size() - 1;
  for (uint64_t h : old) {
    if (h == 0) continue;
    size_t i = h & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = h;
  }
}

// ---- Column ----

void ColumnStatsBuilder::Column::Widen(const Value& lo, const Value& hi) {
  if (min.is_null() || lo.Compare(min) < 0) min = lo;
  if (max.is_null() || hi.Compare(max) > 0) max = hi;
}

template <typename T>
void ColumnStatsBuilder::Column::AddFixed(const DecodedBlock& d,
                                          int64_t rows) {
  bool any = false;
  T lo{};
  T hi{};
  for (int64_t i = 0; i < rows; ++i) {
    if (d.IsNull(i)) {
      ++nulls;
      continue;
    }
    Observe(d.HashAt(i));
    T v = d.ValueAt<T>(i);
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(v)) continue;  // NaN has no place in a range
    }
    if (!any) {
      lo = hi = v;
      any = true;
    } else if (v < lo) {
      lo = v;
    } else if (v > hi) {
      hi = v;
    }
  }
  if (any) Widen(Box(type, lo), Box(type, hi));
}

void ColumnStatsBuilder::Column::AddVarchar(const DecodedBlock& d,
                                            int64_t rows) {
  bool any = false;
  std::string_view lo;
  std::string_view hi;
  for (int64_t i = 0; i < rows; ++i) {
    if (d.IsNull(i)) {
      ++nulls;
      continue;
    }
    Observe(d.HashAt(i));
    std::string_view v = d.StringAt(i);
    if (!any) {
      lo = hi = v;
      any = true;
    } else if (v < lo) {
      lo = v;
    } else if (v > hi) {
      hi = v;
    }
  }
  if (any) {
    Widen(Value::Varchar(std::string(lo)), Value::Varchar(std::string(hi)));
  }
}

void ColumnStatsBuilder::Column::Add(const BlockPtr& block, int64_t rows) {
  if (type == TypeKind::kUnknown) {
    nulls += rows;  // UNKNOWN is the type of a bare NULL
    return;
  }
  DecodedBlock d;
  d.Decode(block);
  switch (type) {
    case TypeKind::kBoolean:
      AddFixed<uint8_t>(d, rows);
      break;
    case TypeKind::kBigint:
    case TypeKind::kDate:
      AddFixed<int64_t>(d, rows);
      break;
    case TypeKind::kDouble:
      AddFixed<double>(d, rows);
      break;
    case TypeKind::kVarchar:
      AddVarchar(d, rows);
      break;
    case TypeKind::kUnknown:
      break;
  }
}

// ---- ColumnStatsBuilder ----

ColumnStatsBuilder::ColumnStatsBuilder(const RowSchema& schema) {
  columns_.resize(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    columns_[c].name = schema.at(c).name;
    columns_[c].type = schema.at(c).type;
  }
}

void ColumnStatsBuilder::Add(const Page& page) {
  PRESTO_CHECK(page.num_columns() == columns_.size());
  rows_ += page.num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Add(page.block(c), page.num_rows());
  }
}

void ColumnStatsBuilder::Merge(const ColumnStatsBuilder& other) {
  PRESTO_CHECK(other.columns_.size() == columns_.size());
  rows_ += other.rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& mine = columns_[c];
    const Column& theirs = other.columns_[c];
    mine.nulls += theirs.nulls;
    mine.hll.Merge(theirs.hll);
    mine.exact.Merge(theirs.exact);
    if (!theirs.min.is_null()) mine.Widen(theirs.min, theirs.max);
  }
}

TableStats ColumnStatsBuilder::Build() const {
  TableStats stats;
  stats.row_count = rows_;
  for (const Column& col : columns_) {
    ColumnStats cs;
    int64_t non_null = rows_ - col.nulls;
    cs.distinct_values = col.exact.overflowed()
                             ? std::min(col.hll.Estimate(), non_null)
                             : col.exact.size();
    cs.null_fraction = rows_ == 0 ? 0.0
                                  : static_cast<double>(col.nulls) /
                                        static_cast<double>(rows_);
    cs.min = col.min;
    cs.max = col.max;
    stats.columns[col.name] = std::move(cs);
  }
  return stats;
}

}  // namespace presto
