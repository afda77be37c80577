#include "expr/aggregates.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "common/hyperloglog.h"
#include "common/string_utils.h"
#include "vector/block_builder.h"
#include "vector/decoded_block.h"

namespace presto {

Result<AggregateSignature> ResolveAggregate(const std::string& name,
                                            std::optional<TypeKind> arg,
                                            bool distinct) {
  std::string n = ToLowerAscii(name);
  using TK = TypeKind;
  if (distinct && n != "count") {
    return Status::Unsupported("DISTINCT is only supported with COUNT");
  }
  if (n == "count") {
    if (!arg.has_value()) {
      return AggregateSignature{AggKind::kCountAll, TK::kUnknown, TK::kBigint,
                                TK::kBigint};
    }
    if (distinct) {
      return AggregateSignature{AggKind::kCountDistinct, *arg, TK::kBigint,
                                TK::kVarchar};
    }
    return AggregateSignature{AggKind::kCount, *arg, TK::kBigint, TK::kBigint};
  }
  if (!arg.has_value()) {
    return Status::InvalidArgument(n + " requires an argument");
  }
  if (n == "sum") {
    if (*arg == TK::kBigint) {
      return AggregateSignature{AggKind::kSum, TK::kBigint, TK::kBigint,
                                TK::kBigint};
    }
    if (*arg == TK::kDouble) {
      return AggregateSignature{AggKind::kSum, TK::kDouble, TK::kDouble,
                                TK::kDouble};
    }
    return Status::InvalidArgument("sum requires a numeric argument");
  }
  if (n == "avg") {
    if (*arg != TK::kBigint && *arg != TK::kDouble) {
      return Status::InvalidArgument("avg requires a numeric argument");
    }
    return AggregateSignature{AggKind::kAvg, *arg, TK::kDouble, TK::kVarchar};
  }
  if (n == "min" || n == "max") {
    if (!IsOrderable(*arg)) {
      return Status::InvalidArgument(n + " requires an orderable argument");
    }
    return AggregateSignature{n == "min" ? AggKind::kMin : AggKind::kMax,
                              *arg, *arg, *arg};
  }
  if (n == "approx_distinct") {
    return AggregateSignature{AggKind::kApproxDistinct, *arg, TK::kBigint,
                              TK::kVarchar};
  }
  if (n == "stddev" || n == "stddev_samp") {
    if (*arg != TK::kBigint && *arg != TK::kDouble) {
      return Status::InvalidArgument("stddev requires a numeric argument");
    }
    return AggregateSignature{AggKind::kStddev, *arg, TK::kDouble,
                              TK::kVarchar};
  }
  if (n == "variance" || n == "var_samp") {
    if (*arg != TK::kBigint && *arg != TK::kDouble) {
      return Status::InvalidArgument("variance requires a numeric argument");
    }
    return AggregateSignature{AggKind::kVariance, *arg, TK::kDouble,
                              TK::kVarchar};
  }
  return Status::InvalidArgument("unknown aggregate function: " + name);
}

namespace {

// ---------------------------------------------------------------------------
// COUNT / COUNT(*)
// ---------------------------------------------------------------------------
class CountAccumulator final : public Accumulator {
 public:
  explicit CountAccumulator(bool count_all) : count_all_(count_all) {}

  void Resize(int64_t n) override {
    counts_.resize(static_cast<size_t>(n), 0);
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    if (count_all_ || arg == nullptr) {
      for (int64_t i = 0; i < rows; ++i) {
        ++counts_[static_cast<size_t>(group_ids[i])];
      }
      return;
    }
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (!d.IsNull(i)) ++counts_[static_cast<size_t>(group_ids[i])];
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    DecodedBlock d;
    d.Decode(state);
    for (int64_t i = 0; i < rows; ++i) {
      if (!d.IsNull(i)) {
        counts_[static_cast<size_t>(group_ids[i])] += d.ValueAt<int64_t>(i);
      }
    }
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override { return BuildFinal(n); }

  BlockPtr BuildFinal(int64_t n) override {
    return MakeBigintBlock(std::vector<int64_t>(
        counts_.begin(), counts_.begin() + static_cast<ptrdiff_t>(n)));
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(counts_.size() * sizeof(int64_t));
  }

 private:
  bool count_all_;
  std::vector<int64_t> counts_;
};

// ---------------------------------------------------------------------------
// SUM / MIN / MAX over fixed-width numerics
// ---------------------------------------------------------------------------
template <typename T>
class SumAccumulator final : public Accumulator {
 public:
  explicit SumAccumulator(TypeKind type) : type_(type) {}

  void Resize(int64_t n) override {
    sums_.resize(static_cast<size_t>(n), T{});
    seen_.resize(static_cast<size_t>(n), 0);
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    if (!d.MayHaveNulls()) {
      for (int64_t i = 0; i < rows; ++i) {
        auto g = static_cast<size_t>(group_ids[i]);
        sums_[g] += d.ValueAt<T>(i);
        seen_[g] = 1;
      }
      return;
    }
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      auto g = static_cast<size_t>(group_ids[i]);
      sums_[g] += d.ValueAt<T>(i);
      seen_[g] = 1;
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    Add(group_ids, state, rows);
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override { return BuildFinal(n); }

  BlockPtr BuildFinal(int64_t n) override {
    auto count = static_cast<size_t>(n);
    std::vector<T> values(sums_.begin(),
                          sums_.begin() + static_cast<ptrdiff_t>(n));
    std::vector<uint8_t> nulls(count, 0);
    bool any_null = false;
    for (size_t i = 0; i < count; ++i) {
      if (!seen_[i]) {
        nulls[i] = 1;
        any_null = true;
      }
    }
    if (!any_null) nulls.clear();
    return std::make_shared<FlatBlock<T>>(type_, std::move(values),
                                          std::move(nulls));
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(sums_.size() * (sizeof(T) + 1));
  }

 private:
  TypeKind type_;
  std::vector<T> sums_;
  std::vector<uint8_t> seen_;
};

// MIN/MAX for fixed-width types.
template <typename T>
class MinMaxAccumulator final : public Accumulator {
 public:
  MinMaxAccumulator(TypeKind type, bool is_min)
      : type_(type), is_min_(is_min) {}

  void Resize(int64_t n) override {
    values_.resize(static_cast<size_t>(n), T{});
    seen_.resize(static_cast<size_t>(n), 0);
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      auto g = static_cast<size_t>(group_ids[i]);
      T v = d.ValueAt<T>(i);
      if (!seen_[g] || (is_min_ ? v < values_[g] : v > values_[g])) {
        values_[g] = v;
        seen_[g] = 1;
      }
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    Add(group_ids, state, rows);
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override { return BuildFinal(n); }

  BlockPtr BuildFinal(int64_t n) override {
    auto count = static_cast<size_t>(n);
    std::vector<T> values(values_.begin(),
                          values_.begin() + static_cast<ptrdiff_t>(n));
    std::vector<uint8_t> nulls(count, 0);
    bool any_null = false;
    for (size_t i = 0; i < count; ++i) {
      if (!seen_[i]) {
        nulls[i] = 1;
        any_null = true;
      }
    }
    if (!any_null) nulls.clear();
    return std::make_shared<FlatBlock<T>>(type_, std::move(values),
                                          std::move(nulls));
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(values_.size() * (sizeof(T) + 1));
  }

 private:
  TypeKind type_;
  bool is_min_;
  std::vector<T> values_;
  std::vector<uint8_t> seen_;
};

// MIN/MAX for VARCHAR.
class MinMaxStringAccumulator final : public Accumulator {
 public:
  explicit MinMaxStringAccumulator(bool is_min) : is_min_(is_min) {}

  void Resize(int64_t n) override {
    values_.resize(static_cast<size_t>(n));
    seen_.resize(static_cast<size_t>(n), 0);
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      auto g = static_cast<size_t>(group_ids[i]);
      std::string_view v = d.StringAt(i);
      if (!seen_[g] || (is_min_ ? v < values_[g] : v > values_[g])) {
        values_[g] = std::string(v);
        seen_[g] = 1;
      }
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    Add(group_ids, state, rows);
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override { return BuildFinal(n); }

  BlockPtr BuildFinal(int64_t n) override {
    BlockBuilder b(TypeKind::kVarchar);
    for (int64_t i = 0; i < n; ++i) {
      if (seen_[static_cast<size_t>(i)]) {
        b.AppendString(values_[static_cast<size_t>(i)]);
      } else {
        b.AppendNull();
      }
    }
    return b.Build();
  }

  int64_t MemoryBytes() const override {
    int64_t total = static_cast<int64_t>(seen_.size());
    for (const auto& s : values_) total += static_cast<int64_t>(s.size() + 16);
    return total;
  }

 private:
  bool is_min_;
  std::vector<std::string> values_;
  std::vector<uint8_t> seen_;
};

// ---------------------------------------------------------------------------
// Blob-state accumulators: AVG, STDDEV/VARIANCE, COUNT(DISTINCT),
// APPROX_DISTINCT. Intermediate states travel as VARCHAR blobs.
// ---------------------------------------------------------------------------

// AVG / STDDEV / VARIANCE share a (n, sum, sumsq) moments state.
struct Moments {
  int64_t n = 0;
  double sum = 0;
  double sumsq = 0;
};

class MomentsAccumulator final : public Accumulator {
 public:
  MomentsAccumulator(AggKind kind, TypeKind arg_type)
      : kind_(kind), arg_type_(arg_type) {}

  void Resize(int64_t n) override {
    state_.resize(static_cast<size_t>(n));
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      double v = arg_type_ == TypeKind::kDouble
                     ? d.ValueAt<double>(i)
                     : static_cast<double>(d.ValueAt<int64_t>(i));
      Moments& m = state_[static_cast<size_t>(group_ids[i])];
      m.n += 1;
      m.sum += v;
      m.sumsq += v * v;
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    DecodedBlock d;
    d.Decode(state);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      std::string_view blob = d.StringAt(i);
      if (blob.size() != sizeof(Moments)) {
        return Status::Internal("bad moments intermediate state");
      }
      Moments in;
      std::memcpy(&in, blob.data(), sizeof(Moments));
      Moments& m = state_[static_cast<size_t>(group_ids[i])];
      m.n += in.n;
      m.sum += in.sum;
      m.sumsq += in.sumsq;
    }
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override {
    BlockBuilder b(TypeKind::kVarchar);
    for (int64_t i = 0; i < n; ++i) {
      const Moments& m = state_[static_cast<size_t>(i)];
      b.AppendString(std::string_view(reinterpret_cast<const char*>(&m),
                                      sizeof(Moments)));
    }
    return b.Build();
  }

  BlockPtr BuildFinal(int64_t n) override {
    BlockBuilder b(TypeKind::kDouble);
    for (int64_t i = 0; i < n; ++i) {
      const Moments& m = state_[static_cast<size_t>(i)];
      if (m.n == 0 || (kind_ != AggKind::kAvg && m.n < 2)) {
        b.AppendNull();
        continue;
      }
      double mean = m.sum / static_cast<double>(m.n);
      switch (kind_) {
        case AggKind::kAvg:
          b.AppendDouble(mean);
          break;
        case AggKind::kVariance:
        case AggKind::kStddev: {
          double num = m.sumsq - static_cast<double>(m.n) * mean * mean;
          double var = num / static_cast<double>(m.n - 1);
          if (var < 0) var = 0;  // numeric noise
          b.AppendDouble(kind_ == AggKind::kStddev ? std::sqrt(var) : var);
          break;
        }
        default:
          PRESTO_UNREACHABLE();
      }
    }
    return b.Build();
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(state_.size() * sizeof(Moments));
  }

 private:
  AggKind kind_;
  TypeKind arg_type_;
  std::vector<Moments> state_;
};

// Encodes a non-null scalar into bytes for distinct sets.
std::string EncodeDistinctKey(const DecodedBlock& d, TypeKind type,
                              int64_t row) {
  switch (type) {
    case TypeKind::kBoolean: {
      char c = d.ValueAt<uint8_t>(row) ? 1 : 0;
      return std::string(1, c);
    }
    case TypeKind::kBigint:
    case TypeKind::kDate: {
      int64_t v = d.ValueAt<int64_t>(row);
      return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    case TypeKind::kDouble: {
      double v = d.ValueAt<double>(row);
      if (v == 0.0) v = 0.0;  // normalize -0.0
      return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    case TypeKind::kVarchar:
      return std::string(d.StringAt(row));
    default:
      PRESTO_UNREACHABLE();
  }
}

class CountDistinctAccumulator final : public Accumulator {
 public:
  explicit CountDistinctAccumulator(TypeKind arg_type)
      : arg_type_(arg_type) {}

  void Resize(int64_t n) override { sets_.resize(static_cast<size_t>(n)); }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      sets_[static_cast<size_t>(group_ids[i])].insert(
          EncodeDistinctKey(d, arg_type_, i));
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    DecodedBlock d;
    d.Decode(state);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      std::string_view blob = d.StringAt(i);
      auto& set = sets_[static_cast<size_t>(group_ids[i])];
      // Blob: sequence of (u32 len, bytes).
      size_t off = 0;
      while (off + 4 <= blob.size()) {
        uint32_t len = 0;
        std::memcpy(&len, blob.data() + off, 4);
        off += 4;
        if (off + len > blob.size()) {
          return Status::Internal("bad distinct intermediate state");
        }
        set.insert(std::string(blob.substr(off, len)));
        off += len;
      }
    }
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override {
    BlockBuilder b(TypeKind::kVarchar);
    std::string blob;
    for (int64_t i = 0; i < n; ++i) {
      blob.clear();
      for (const auto& key : sets_[static_cast<size_t>(i)]) {
        auto len = static_cast<uint32_t>(key.size());
        blob.append(reinterpret_cast<const char*>(&len), 4);
        blob.append(key);
      }
      b.AppendString(blob);
    }
    return b.Build();
  }

  BlockPtr BuildFinal(int64_t n) override {
    std::vector<int64_t> counts(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      counts[static_cast<size_t>(i)] =
          static_cast<int64_t>(sets_[static_cast<size_t>(i)].size());
    }
    return MakeBigintBlock(std::move(counts));
  }

  int64_t MemoryBytes() const override {
    int64_t total = 0;
    for (const auto& s : sets_) {
      total += static_cast<int64_t>(s.size() * 48 + 64);
    }
    return total;
  }

 private:
  TypeKind arg_type_;
  std::vector<std::unordered_set<std::string>> sets_;
};

// approx_distinct: one HyperLogLog per group; the intermediate state is the
// raw register string ("" for a group that saw no value).
class ApproxDistinctAccumulator final : public Accumulator {
 public:
  void Resize(int64_t n) override {
    if (static_cast<size_t>(n) > sketches_.size()) {
      sketches_.resize(static_cast<size_t>(n));
    }
  }

  void Add(const int32_t* group_ids, const BlockPtr& arg,
           int64_t rows) override {
    DecodedBlock d;
    d.Decode(arg);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      sketches_[static_cast<size_t>(group_ids[i])].AddHash(d.HashAt(i));
    }
  }

  Status Merge(const int32_t* group_ids, const BlockPtr& state,
               int64_t rows) override {
    DecodedBlock d;
    d.Decode(state);
    for (int64_t i = 0; i < rows; ++i) {
      if (d.IsNull(i)) continue;
      std::string_view blob = d.StringAt(i);
      if (blob.empty()) continue;
      if (blob.size() != HyperLogLog::kRegisters) {
        return Status::Internal("bad hll intermediate state");
      }
      sketches_[static_cast<size_t>(group_ids[i])].MergeRegisters(blob);
    }
    return Status::OK();
  }

  BlockPtr BuildIntermediate(int64_t n) override {
    BlockBuilder b(TypeKind::kVarchar);
    for (int64_t i = 0; i < n; ++i) {
      b.AppendString(sketches_[static_cast<size_t>(i)].registers());
    }
    return b.Build();
  }

  BlockPtr BuildFinal(int64_t n) override {
    std::vector<int64_t> counts(static_cast<size_t>(n), 0);
    for (int64_t i = 0; i < n; ++i) {
      counts[static_cast<size_t>(i)] =
          sketches_[static_cast<size_t>(i)].Estimate();
    }
    return MakeBigintBlock(std::move(counts));
  }

  int64_t MemoryBytes() const override {
    int64_t total = 0;
    for (const auto& s : sketches_) total += s.MemoryBytes();
    return total;
  }

 private:
  std::vector<HyperLogLog> sketches_;
};

}  // namespace

std::unique_ptr<Accumulator> CreateAccumulator(const AggregateSignature& sig) {
  switch (sig.kind) {
    case AggKind::kCountAll:
      return std::make_unique<CountAccumulator>(true);
    case AggKind::kCount:
      return std::make_unique<CountAccumulator>(false);
    case AggKind::kSum:
      if (sig.arg_type == TypeKind::kDouble) {
        return std::make_unique<SumAccumulator<double>>(TypeKind::kDouble);
      }
      return std::make_unique<SumAccumulator<int64_t>>(TypeKind::kBigint);
    case AggKind::kMin:
    case AggKind::kMax: {
      bool is_min = sig.kind == AggKind::kMin;
      switch (sig.arg_type) {
        case TypeKind::kBoolean:
          return std::make_unique<MinMaxAccumulator<uint8_t>>(
              TypeKind::kBoolean, is_min);
        case TypeKind::kBigint:
        case TypeKind::kDate:
          return std::make_unique<MinMaxAccumulator<int64_t>>(sig.arg_type,
                                                              is_min);
        case TypeKind::kDouble:
          return std::make_unique<MinMaxAccumulator<double>>(
              TypeKind::kDouble, is_min);
        case TypeKind::kVarchar:
          return std::make_unique<MinMaxStringAccumulator>(is_min);
        default:
          PRESTO_UNREACHABLE();
      }
      PRESTO_UNREACHABLE();
    }
    case AggKind::kAvg:
    case AggKind::kStddev:
    case AggKind::kVariance:
      return std::make_unique<MomentsAccumulator>(sig.kind, sig.arg_type);
    case AggKind::kCountDistinct:
      return std::make_unique<CountDistinctAccumulator>(sig.arg_type);
    case AggKind::kApproxDistinct:
      return std::make_unique<ApproxDistinctAccumulator>();
  }
  PRESTO_UNREACHABLE();
}

}  // namespace presto
