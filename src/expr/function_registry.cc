#include "expr/function_registry.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/string_utils.h"
#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {

namespace {

// ---------------------------------------------------------------------------
// One definition per overload (DESIGN.md §19). A scalar body is a plain C++
// callable over native values; `Define<Sig>` generates both §V-B forms from
// it: the boxed row function of the interpreter, and a columnar kernel whose
// type-specialized loop is the C++ analogue of the monomorphic loops
// Presto's bytecode generator emits (§V-B2).
// ---------------------------------------------------------------------------

// SQL types as signature tags. `In` is the native type a body receives for
// the argument (and returns for the result; VARCHAR results may also be
// std::string).
struct Bigint {
  static constexpr TypeKind kKind = TypeKind::kBigint;
  using In = int64_t;
};
struct Date {
  static constexpr TypeKind kKind = TypeKind::kDate;
  using In = int64_t;
};
struct Double {
  static constexpr TypeKind kKind = TypeKind::kDouble;
  using In = double;
};
struct Boolean {
  static constexpr TypeKind kKind = TypeKind::kBoolean;
  using In = bool;
};
struct Varchar {
  static constexpr TypeKind kKind = TypeKind::kVarchar;
  using In = std::string_view;
};

// Physical element type of a fixed-width column.
template <typename T>
using Stored = std::conditional_t<std::is_same_v<T, Boolean>, uint8_t,
                                  typename T::In>;

// A body that can yield NULL or fail a row declares `-> Maybe<T>` and
// returns a value, `kNull` or `Fail{"message"}`. The message is a string
// literal, so the success path carries no Status and allocates nothing.
struct NullOutcome {};
constexpr NullOutcome kNull{};
struct Fail {
  const char* message;
};

template <typename T>
struct Maybe {
  Maybe(T v) : value(std::move(v)) {}  // NOLINT(runtime/explicit)
  Maybe(NullOutcome) : null(true) {}   // NOLINT(runtime/explicit)
  Maybe(Fail f) : error(f.message) {}  // NOLINT(runtime/explicit)
  T value{};
  bool null = false;
  const char* error = nullptr;
};

template <typename R>
struct IsMaybe : std::false_type {};
template <typename T>
struct IsMaybe<Maybe<T>> : std::true_type {};

template <typename T>
typename T::In Read(const DecodedBlock& d, int64_t i) {
  if constexpr (std::is_same_v<T, Varchar>) {
    return d.StringAt(i);
  } else if constexpr (std::is_same_v<T, Boolean>) {
    return d.ValueAt<uint8_t>(i) != 0;
  } else {
    return d.ValueAt<typename T::In>(i);
  }
}

template <typename T>
typename T::In Unbox(const Value& v) {
  if constexpr (std::is_same_v<T, Varchar>) {
    return v.AsVarchar();
  } else if constexpr (std::is_same_v<T, Boolean>) {
    return v.AsBoolean();
  } else if constexpr (std::is_same_v<T, Double>) {
    return v.AsDouble();
  } else {
    return v.AsBigint();  // BIGINT and DATE share the int64_t payload
  }
}

template <typename T, typename V>
Value Box(const V& v) {
  if constexpr (std::is_same_v<T, Varchar>) {
    return Value::Varchar(std::string(v));
  } else if constexpr (std::is_same_v<T, Boolean>) {
    return Value::Boolean(v);
  } else if constexpr (std::is_same_v<T, Double>) {
    return Value::Double(v);
  } else if constexpr (std::is_same_v<T, Date>) {
    return Value::Date(v);
  } else {
    return Value::Bigint(v);
  }
}

// A kernel's output column. Rows are written in order, each exactly once.
template <typename T>
class ColumnWriter {
 public:
  explicit ColumnWriter(int64_t rows)
      : rows_(rows), values_(static_cast<size_t>(rows)) {}

  void Set(int64_t i, typename T::In v) {
    values_[static_cast<size_t>(i)] = static_cast<Stored<T>>(v);
  }
  void SetNull(int64_t i) {
    if (nulls_.empty()) nulls_.resize(static_cast<size_t>(rows_), 0);
    nulls_[static_cast<size_t>(i)] = 1;
  }
  BlockPtr Build() {
    return std::make_shared<FlatBlock<Stored<T>>>(T::kKind, std::move(values_),
                                                  std::move(nulls_));
  }

 private:
  int64_t rows_;
  std::vector<Stored<T>> values_;
  std::vector<uint8_t> nulls_;
};

template <>
class ColumnWriter<Varchar> {
 public:
  explicit ColumnWriter(int64_t rows) : rows_(rows) {
    offsets_.reserve(static_cast<size_t>(rows) + 1);
    offsets_.push_back(0);
  }

  void Set(int64_t, std::string_view v) {
    bytes_.append(v);
    offsets_.push_back(static_cast<int32_t>(bytes_.size()));
  }
  void SetNull(int64_t i) {
    if (nulls_.empty()) nulls_.resize(static_cast<size_t>(rows_), 0);
    nulls_[static_cast<size_t>(i)] = 1;
    offsets_.push_back(static_cast<int32_t>(bytes_.size()));
  }
  BlockPtr Build() {
    return std::make_shared<VarcharBlock>(
        std::move(offsets_), std::move(bytes_), std::move(nulls_));
  }

 private:
  int64_t rows_;
  std::vector<int32_t> offsets_;
  std::string bytes_;
  std::vector<uint8_t> nulls_;
};

template <typename Sig>
struct Adaptor;

// Both forms of a body with result type R and argument types A...; a NULL
// argument yields NULL without running the body.
template <typename R, typename... A>
struct Adaptor<R(A...)> {
  static constexpr TypeKind kReturn = R::kKind;
  static constexpr size_t kArity = sizeof...(A);
  static std::vector<TypeKind> ArgTypes() { return {A::kKind...}; }
  using Args = std::index_sequence_for<A...>;
  using Decoded = std::array<DecodedBlock, kArity>;

  template <typename F, size_t... I>
  static Result<Value> Row(const F& body, const std::vector<Value>& args,
                           std::index_sequence<I...>) {
    auto result = body(Unbox<A>(args[I])...);
    if constexpr (IsMaybe<decltype(result)>::value) {
      if (result.error != nullptr) return Status::InvalidArgument(result.error);
      if (result.null) return Value::Null(R::kKind);
      return Box<R>(result.value);
    } else {
      return Box<R>(result);
    }
  }

  // Runs the body on row i and writes its value or NULL; returns the body's
  // error message, or nullptr.
  template <typename F, size_t... I>
  static const char* Apply(const F& body, const Decoded& args, int64_t i,
                           ColumnWriter<R>* out, std::index_sequence<I...>) {
    auto result = body(Read<A>(args[I], i)...);
    if constexpr (IsMaybe<decltype(result)>::value) {
      if (result.error != nullptr) return result.error;
      if (result.null) {
        out->SetNull(i);
        return nullptr;
      }
      out->Set(i, result.value);
    } else {
      out->Set(i, result);
    }
    return nullptr;
  }

  static bool AnyNull(const Decoded& args, int64_t i) {
    for (const auto& a : args) {
      if (a.IsNull(i)) return true;
    }
    return false;
  }

  template <bool kMayHaveNulls, typename F>
  static Result<BlockPtr> Loop(const F& body, const Decoded& decoded,
                               int64_t rows) {
    // Read a local copy, which the compiler keeps in registers: a BOOLEAN
    // result is stored as uint8_t, which may alias the caller's decoders,
    // so reading those would reload every decoder field on every row.
    const Decoded args = decoded;
    ColumnWriter<R> out(rows);
    for (int64_t i = 0; i < rows; ++i) {
      if (kMayHaveNulls && AnyNull(args, i)) {
        out.SetNull(i);
      } else if (const char* error = Apply(body, args, i, &out, Args{})) {
        return Status::InvalidArgument(error);
      }
    }
    return out.Build();
  }

  template <typename F>
  static Result<BlockPtr> Column(const F& body,
                                 const std::vector<BlockPtr>& blocks,
                                 int64_t rows) {
    Decoded args;
    bool constant = true;
    bool may_have_nulls = false;
    for (size_t k = 0; k < kArity; ++k) {
      args[k].Decode(blocks[k]);
      constant = constant && args[k].is_constant();
      may_have_nulls = may_have_nulls || args[k].MayHaveNulls();
    }
    if (constant) {
      // Run the body once and repeat its result.
      PRESTO_ASSIGN_OR_RETURN(BlockPtr one, Loop<true>(body, args, 1));
      return BlockPtr(std::make_shared<RleBlock>(std::move(one), rows));
    }
    return may_have_nulls ? Loop<true>(body, args, rows)
                          : Loop<false>(body, args, rows);
  }
};

template <typename Sig, typename F>
ScalarFunction Define(const char* name, F body) {
  using Ad = Adaptor<Sig>;
  return {name, Ad::ArgTypes(), Ad::kReturn,
          [body](const std::vector<Value>& args) {
            return Ad::Row(body, args, typename Ad::Args{});
          },
          [body](const std::vector<BlockPtr>& args, int64_t rows) {
            return Ad::Column(body, args, rows);
          }};
}

// Three-way comparison behind `=`, `<`, …. DOUBLE compares through IEEE `<`
// and `>`, so a NaN operand is neither less nor greater: it compares as
// equal (DESIGN.md §19).
template <typename T>
int Compare3(T x, T y) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    int c = x.compare(y);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    return x < y ? -1 : (x > y ? 1 : 0);
  }
}

// Value::Compare's sort order, behind greatest/least: NaN above +Infinity,
// -0.0 equal to 0.0.
template <typename T>
int SortOrder(T x, T y) {
  int c = Compare3(x, y);
  if constexpr (std::is_floating_point_v<T>) {
    if (c == 0 && std::isnan(x) != std::isnan(y)) c = std::isnan(x) ? 1 : -1;
  }
  return c;
}

// year/month/day: the field at [pos, pos + len) of the "YYYY-MM-DD" text.
int64_t DateField(int64_t days, size_t pos, size_t len) {
  return std::atoll(FormatDate(days).substr(pos, len).c_str());
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry construction.
// ---------------------------------------------------------------------------

const FunctionRegistry& FunctionRegistry::Instance() {
  static const FunctionRegistry* kInstance = new FunctionRegistry();
  return *kInstance;
}

void FunctionRegistry::Register(ScalarFunction fn) {
  functions_.push_back(std::move(fn));
}

Result<const ScalarFunction*> FunctionRegistry::Resolve(
    const std::string& name, const std::vector<TypeKind>& arg_types) const {
  // Pass 1: exact match.
  for (const auto& f : functions_) {
    if (f.name != name || f.arg_types.size() != arg_types.size()) continue;
    bool exact = true;
    for (size_t i = 0; i < arg_types.size(); ++i) {
      if (f.arg_types[i] != arg_types[i]) {
        exact = false;
        break;
      }
    }
    if (exact) return &f;
  }
  // Pass 2: coercible match (first wins; registration order puts preferred
  // overloads first).
  for (const auto& f : functions_) {
    if (f.name != name || f.arg_types.size() != arg_types.size()) continue;
    bool usable = true;
    for (size_t i = 0; i < arg_types.size(); ++i) {
      if (!IsImplicitlyCoercible(arg_types[i], f.arg_types[i])) {
        usable = false;
        break;
      }
    }
    if (usable) return &f;
  }
  std::string types;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    if (i > 0) types += ", ";
    types += TypeToString(arg_types[i]);
  }
  bool name_exists = false;
  for (const auto& f : functions_) {
    if (f.name == name) {
      name_exists = true;
      break;
    }
  }
  if (!name_exists) {
    return Status::InvalidArgument("unknown function: " + name);
  }
  return Status::InvalidArgument("no overload of " + name +
                                 " accepts arguments (" + types + ")");
}

FunctionRegistry::FunctionRegistry() {
  // ---- Arithmetic ----
  auto arithmetic = [this](const char* name, auto body) {
    Register(Define<Bigint(Bigint, Bigint)>(name, body));
    Register(Define<Double(Double, Double)>(name, body));
  };
  // BIGINT +, - and * fail the query when the result does not fit, as in
  // Presto; DOUBLE follows IEEE (overflow gives an infinity).
  auto checked = [this](const char* name, const char* overflow, auto op,
                        auto checked_op) {
    Register(Define<Bigint(Bigint, Bigint)>(
        name, [overflow, checked_op](int64_t x, int64_t y) -> Maybe<int64_t> {
          int64_t result;
          if (checked_op(x, y, &result)) return Fail{overflow};
          return result;
        }));
    Register(Define<Double(Double, Double)>(name, op));
  };
  checked(
      "plus", "bigint addition overflow",
      [](double x, double y) { return x + y; },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_add_overflow(x, y, r);
      });
  checked(
      "minus", "bigint subtraction overflow",
      [](double x, double y) { return x - y; },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_sub_overflow(x, y, r);
      });
  checked(
      "multiply", "bigint multiplication overflow",
      [](double x, double y) { return x * y; },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_mul_overflow(x, y, r);
      });
  // Division by zero yields NULL (documented deviation: Presto raises a
  // query error). INT64_MIN / -1 does not fit in a BIGINT and fails.
  arithmetic("divide", [](auto x, auto y) -> Maybe<decltype(x)> {
    if (y == 0) return kNull;
    if constexpr (std::is_integral_v<decltype(x)>) {
      if (x == std::numeric_limits<int64_t>::min() && y == -1) {
        return Fail{"bigint division overflow"};
      }
    }
    return x / y;
  });
  // x % -1 is 0 for every x; the hardware instruction traps on INT64_MIN.
  Register(Define<Bigint(Bigint, Bigint)>(
      "modulus", [](int64_t x, int64_t y) -> Maybe<int64_t> {
        if (y == 0) return kNull;
        if (y == -1) return 0;
        return x % y;
      }));
  Register(Define<Bigint(Bigint)>("negate", [](int64_t x) -> Maybe<int64_t> {
    if (x == std::numeric_limits<int64_t>::min()) {
      return Fail{"bigint negation overflow"};
    }
    return -x;
  }));
  Register(Define<Double(Double)>("negate", [](double x) { return -x; }));

  // ---- Comparisons (all orderable types) ----
  auto comparison = [this](const char* name, auto accept) {
    auto body = [accept](auto x, auto y) { return accept(Compare3(x, y)); };
    Register(Define<Boolean(Bigint, Bigint)>(name, body));
    Register(Define<Boolean(Double, Double)>(name, body));
    Register(Define<Boolean(Varchar, Varchar)>(name, body));
    Register(Define<Boolean(Boolean, Boolean)>(name, body));
    Register(Define<Boolean(Date, Date)>(name, body));
  };
  comparison("eq", [](int c) { return c == 0; });
  comparison("neq", [](int c) { return c != 0; });
  comparison("lt", [](int c) { return c < 0; });
  comparison("lte", [](int c) { return c <= 0; });
  comparison("gt", [](int c) { return c > 0; });
  comparison("gte", [](int c) { return c >= 0; });

  // ---- Logical NOT ----
  Register(Define<Boolean(Boolean)>("not", [](bool x) { return !x; }));

  // ---- String functions ----
  Register(Define<Bigint(Varchar)>("length", [](std::string_view s) {
    return static_cast<int64_t>(s.size());
  }));
  Register(Define<Varchar(Varchar)>(
      "lower", [](std::string_view s) { return ToLowerAscii(s); }));
  Register(Define<Varchar(Varchar)>(
      "upper", [](std::string_view s) { return ToUpperAscii(s); }));
  Register(Define<Varchar(Varchar)>("trim", [](std::string_view s) {
    size_t b = s.find_first_not_of(' ');
    if (b == std::string_view::npos) return std::string_view();
    size_t e = s.find_last_not_of(' ');
    return s.substr(b, e - b + 1);
  }));
  Register(Define<Varchar(Varchar, Varchar)>(
      "concat", [](std::string_view x, std::string_view y) {
        return std::string(x).append(y);
      }));
  // substr(s, start[, length]): 1-based start per SQL; a start below 1
  // reads from the first character.
  auto substr = [](std::string_view s, int64_t start, int64_t len) {
    if (start < 1) start = 1;
    auto b = static_cast<size_t>(start - 1);
    if (b >= s.size() || len <= 0) return std::string_view();
    return s.substr(b, static_cast<size_t>(len));
  };
  Register(Define<Varchar(Varchar, Bigint)>(
      "substr", [substr](std::string_view s, int64_t start) {
        return substr(s, start, static_cast<int64_t>(s.size()));
      }));
  Register(Define<Varchar(Varchar, Bigint, Bigint)>("substr", substr));
  Register(Define<Bigint(Varchar, Varchar)>(
      "strpos", [](std::string_view s, std::string_view sub) {
        size_t pos = s.find(sub);
        return pos == std::string_view::npos ? int64_t{0}
                                             : static_cast<int64_t>(pos) + 1;
      }));
  Register(Define<Varchar(Varchar, Varchar, Varchar)>(
      "replace",
      [](std::string_view s, std::string_view from, std::string_view to) {
        if (from.empty()) return std::string(s);
        std::string out;
        size_t pos = 0;
        for (size_t hit; (hit = s.find(from, pos)) != std::string_view::npos;
             pos = hit + from.size()) {
          out.append(s.substr(pos, hit - pos)).append(to);
        }
        return out.append(s.substr(pos));
      }));
  Register(Define<Boolean(Varchar, Varchar)>(
      "like",
      [](std::string_view v, std::string_view p) { return LikeMatch(v, p); }));

  // ---- Math ----
  Register(Define<Bigint(Bigint)>(
      "abs", [](int64_t x) { return x < 0 ? -x : x; }));
  Register(Define<Double(Double)>("abs", [](double x) { return std::fabs(x); }));
  Register(Define<Double(Double)>(
      "round", [](double x) { return std::round(x); }));
  Register(Define<Double(Double)>(
      "floor", [](double x) { return std::floor(x); }));
  Register(Define<Double(Double)>("ceil", [](double x) { return std::ceil(x); }));
  Register(Define<Double(Double)>("sqrt", [](double x) { return std::sqrt(x); }));
  Register(Define<Double(Double)>("ln", [](double x) { return std::log(x); }));
  Register(Define<Double(Double)>("exp", [](double x) { return std::exp(x); }));
  Register(Define<Double(Double, Double)>(
      "power", [](double x, double y) { return std::pow(x, y); }));
  // Ties return the first argument.
  auto extrema = [this](auto tag) {
    using T = decltype(tag);
    Register(Define<T(T, T)>("greatest", [](auto x, auto y) {
      return SortOrder(x, y) >= 0 ? x : y;
    }));
    Register(Define<T(T, T)>("least", [](auto x, auto y) {
      return SortOrder(x, y) <= 0 ? x : y;
    }));
  };
  extrema(Bigint{});
  extrema(Double{});
  extrema(Varchar{});
  extrema(Date{});

  // ---- Date functions ----
  Register(Define<Bigint(Date)>(
      "year", [](int64_t d) { return DateField(d, 0, 4); }));
  Register(Define<Bigint(Date)>(
      "month", [](int64_t d) { return DateField(d, 5, 2); }));
  Register(Define<Bigint(Date)>(
      "day", [](int64_t d) { return DateField(d, 8, 2); }));
  Register(Define<Date(Date, Bigint)>(
      "date_add", [](int64_t d, int64_t n) { return d + n; }));
  Register(Define<Bigint(Date, Date)>(
      "date_diff", [](int64_t from, int64_t to) { return to - from; }));

  // ---- Misc ----
  Register(Define<Bigint(Bigint)>("hash64", [](int64_t x) {
    return static_cast<int64_t>(HashInt64(static_cast<uint64_t>(x)));
  }));
}

}  // namespace presto
