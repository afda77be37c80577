#include "exec/keys.h"

#include <algorithm>

namespace presto {

namespace {

template <typename T>
int CompareColumn(const DecodedBlock& a, int64_t i, const DecodedBlock& b,
                  int64_t j) {
  bool a_null = a.IsNull(i);
  bool b_null = b.IsNull(j);
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? 1 : -1);
  return CompareKeys(KeyAt<T>(a, i), KeyAt<T>(b, j));
}

}  // namespace

std::vector<DecodedBlock> DecodeKeys(const std::vector<BlockPtr>& columns,
                                     const std::vector<int>& channels) {
  std::vector<DecodedBlock> keys(channels.size());
  for (size_t k = 0; k < channels.size(); ++k) {
    keys[k].Decode(columns[static_cast<size_t>(channels[k])]);
  }
  return keys;
}

void HashKeys(const std::vector<DecodedBlock>& keys, int64_t rows,
              std::vector<uint64_t>* hashes) {
  hashes->assign(static_cast<size_t>(rows), 0);
  uint64_t* h = hashes->data();
  for (const DecodedBlock& d : keys) {
    DispatchKeyType(d.base().type(), [&](auto tag) {
      using T = decltype(tag);
      auto hash_at = [&d](int64_t i) {
        return d.IsNull(i) ? 0 : KeyHash(KeyAt<T>(d, i));
      };
      if (d.is_constant()) {  // RLE: one value, hashed once
        uint64_t v = hash_at(0);
        for (int64_t i = 0; i < rows; ++i) h[i] = HashCombine(h[i], v);
      } else {
        for (int64_t i = 0; i < rows; ++i) h[i] = HashCombine(h[i], hash_at(i));
      }
    });
  }
}

void NullKeyRows(const std::vector<DecodedBlock>& keys, int64_t rows,
                 std::vector<uint8_t>* null_rows) {
  null_rows->clear();
  for (const DecodedBlock& d : keys) {
    if (!d.MayHaveNulls()) continue;
    null_rows->resize(static_cast<size_t>(rows), 0);
    for (int64_t i = 0; i < rows; ++i) {
      (*null_rows)[static_cast<size_t>(i)] |= d.IsNull(i) ? 1 : 0;
    }
  }
}

size_t RetainEqualKeys(const DecodedBlock& probe, const DecodedBlock& build,
                       int32_t* probe_rows, int32_t* build_rows, size_t n) {
  TypeKind type = probe.base().type();
  if (type != build.base().type()) return 0;
  return DispatchKeyType(type, [&](auto tag) {
    using T = decltype(tag);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (KeyAt<T>(probe, probe_rows[i]) == KeyAt<T>(build, build_rows[i])) {
        probe_rows[kept] = probe_rows[i];
        build_rows[kept] = build_rows[i];
        ++kept;
      }
    }
    return kept;
  });
}

KeyComparator::KeyComparator(const std::vector<BlockPtr>& columns,
                             const std::vector<SortKey>& keys) {
  columns_.resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    Column& col = columns_[k];
    col.data.Decode(columns[static_cast<size_t>(keys[k].column)]);
    col.ascending = keys[k].ascending;
    col.compare = DispatchKeyType(col.data.base().type(), [](auto tag) {
      return static_cast<CompareFn>(&CompareColumn<decltype(tag)>);
    });
  }
}

void KeyComparator::Sort(std::vector<int32_t>* positions) const {
  SortRange(positions->data(), positions->size(), 0);
}

void KeyComparator::SortRange(int32_t* positions, size_t n,
                              size_t key) const {
  if (n < 2 || key == columns_.size()) return;
  const Column& col = columns_[key];
  DispatchKeyType(col.data.base().type(), [&](auto tag) {
    using T = decltype(tag);
    // Sort (value, position) pairs of this one key column in a flat array:
    // the compare is inlined and reads no other column.
    struct Entry {
      T value;
      int32_t position;
      bool null;
    };
    std::vector<Entry> entries(n);
    for (size_t i = 0; i < n; ++i) {
      Entry& e = entries[i];
      e.position = positions[i];
      e.null = col.data.IsNull(e.position);
      e.value = e.null ? T{} : KeyAt<T>(col.data, e.position);
    }
    auto compare = [](const Entry& a, const Entry& b) {
      if (a.null || b.null) return a.null == b.null ? 0 : (a.null ? 1 : -1);
      return CompareKeys(a.value, b.value);
    };
    // Ties fall back to the position, which makes the order total: an
    // unstable sort then yields the stable order.
    const bool ascending = col.ascending;
    std::sort(entries.begin(), entries.end(),
              [&](const Entry& a, const Entry& b) {
                int c = compare(a, b);
                if (c != 0) return ascending ? c < 0 : c > 0;
                return a.position < b.position;
              });
    for (size_t i = 0; i < n; ++i) positions[i] = entries[i].position;
    // Rows equal on this key are ordered by the next one.
    for (size_t begin = 0; begin < n;) {
      size_t end = begin + 1;
      while (end < n && compare(entries[begin], entries[end]) == 0) ++end;
      SortRange(positions + begin, end - begin, key + 1);
      begin = end;
    }
  });
}

}  // namespace presto
