#include "expr/function_registry.h"

#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/string_utils.h"
#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {

namespace {

// ---------------------------------------------------------------------------
// Vectorized kernel helpers. Each helper decodes its argument blocks once,
// then runs a tight, type-specialized loop — the C++ analogue of the unrolled
// monomorphic loops Presto's bytecode generator targets (§V-B2).
// ---------------------------------------------------------------------------

// Builds the output block for fixed-width results.
template <typename Out>
BlockPtr MakeFlatResult(TypeKind type, std::vector<Out> values,
                        std::vector<uint8_t> nulls, bool any_null) {
  if (!any_null) nulls.clear();
  return std::make_shared<FlatBlock<Out>>(type, std::move(values),
                                          std::move(nulls));
}

// Binary kernel over fixed-width inputs In -> fixed-width Out.
// F: void(In, In, Out*, bool* null).
template <typename In, typename Out, typename F>
BlockPtr BinaryKernel(const std::vector<BlockPtr>& args, int64_t rows,
                      TypeKind out_type, F f) {
  DecodedBlock a, b;
  a.Decode(args[0]);
  b.Decode(args[1]);
  if (a.is_constant() && b.is_constant()) {
    Out out{};
    bool null = a.IsNull(0) || b.IsNull(0);
    if (!null) f(a.ValueAt<In>(0), b.ValueAt<In>(0), &out, &null);
    BlockPtr one = MakeFlatResult<Out>(out_type, {out},
                                       {static_cast<uint8_t>(null ? 1 : 0)},
                                       null);
    return std::make_shared<RleBlock>(std::move(one), rows);
  }
  std::vector<Out> values(static_cast<size_t>(rows));
  std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
  bool any_null = false;
  const bool no_nulls = !a.MayHaveNulls() && !b.MayHaveNulls();
  if (no_nulls) {
    for (int64_t i = 0; i < rows; ++i) {
      bool null = false;
      f(a.ValueAt<In>(i), b.ValueAt<In>(i), &values[static_cast<size_t>(i)],
        &null);
      if (null) {
        nulls[static_cast<size_t>(i)] = 1;
        any_null = true;
      }
    }
  } else {
    for (int64_t i = 0; i < rows; ++i) {
      if (a.IsNull(i) || b.IsNull(i)) {
        nulls[static_cast<size_t>(i)] = 1;
        any_null = true;
        continue;
      }
      bool null = false;
      f(a.ValueAt<In>(i), b.ValueAt<In>(i), &values[static_cast<size_t>(i)],
        &null);
      if (null) {
        nulls[static_cast<size_t>(i)] = 1;
        any_null = true;
      }
    }
  }
  return MakeFlatResult<Out>(out_type, std::move(values), std::move(nulls),
                             any_null);
}

// Unary kernel over fixed-width input In -> Out.
template <typename In, typename Out, typename F>
BlockPtr UnaryKernel(const std::vector<BlockPtr>& args, int64_t rows,
                     TypeKind out_type, F f) {
  DecodedBlock a;
  a.Decode(args[0]);
  if (a.is_constant()) {
    Out out{};
    bool null = a.IsNull(0);
    if (!null) f(a.ValueAt<In>(0), &out, &null);
    BlockPtr one = MakeFlatResult<Out>(out_type, {out},
                                       {static_cast<uint8_t>(null ? 1 : 0)},
                                       null);
    return std::make_shared<RleBlock>(std::move(one), rows);
  }
  std::vector<Out> values(static_cast<size_t>(rows));
  std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
  bool any_null = false;
  for (int64_t i = 0; i < rows; ++i) {
    if (a.IsNull(i)) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
      continue;
    }
    bool null = false;
    f(a.ValueAt<In>(i), &values[static_cast<size_t>(i)], &null);
    if (null) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
    }
  }
  return MakeFlatResult<Out>(out_type, std::move(values), std::move(nulls),
                             any_null);
}

// Binary kernel over VARCHAR inputs -> fixed-width Out.
// F: void(string_view, string_view, Out*, bool*).
template <typename Out, typename F>
BlockPtr BinaryStringKernel(const std::vector<BlockPtr>& args, int64_t rows,
                            TypeKind out_type, F f) {
  DecodedBlock a, b;
  a.Decode(args[0]);
  b.Decode(args[1]);
  std::vector<Out> values(static_cast<size_t>(rows));
  std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
  bool any_null = false;
  for (int64_t i = 0; i < rows; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
      continue;
    }
    bool null = false;
    f(a.StringAt(i), b.StringAt(i), &values[static_cast<size_t>(i)], &null);
    if (null) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
    }
  }
  return MakeFlatResult<Out>(out_type, std::move(values), std::move(nulls),
                             any_null);
}

// Comparison dispatcher used for all orderable types. `cmp_sign` maps the
// three-way comparison to a boolean: returns f(compare_result).
template <typename F>
uint8_t BoolOf(F f, int c) {
  return f(c) ? 1 : 0;
}

template <typename F>
BlockPtr CompareKernel(TypeKind arg_type, const std::vector<BlockPtr>& args,
                       int64_t rows, F accept) {
  switch (arg_type) {
    case TypeKind::kBigint:
    case TypeKind::kDate:
      return BinaryKernel<int64_t, uint8_t>(
          args, rows, TypeKind::kBoolean,
          [accept](int64_t x, int64_t y, uint8_t* out, bool*) {
            int c = x < y ? -1 : (x > y ? 1 : 0);
            *out = BoolOf(accept, c);
          });
    case TypeKind::kDouble:
      return BinaryKernel<double, uint8_t>(
          args, rows, TypeKind::kBoolean,
          [accept](double x, double y, uint8_t* out, bool*) {
            int c = x < y ? -1 : (x > y ? 1 : 0);
            *out = BoolOf(accept, c);
          });
    case TypeKind::kBoolean:
      return BinaryKernel<uint8_t, uint8_t>(
          args, rows, TypeKind::kBoolean,
          [accept](uint8_t x, uint8_t y, uint8_t* out, bool*) {
            int c = x < y ? -1 : (x > y ? 1 : 0);
            *out = BoolOf(accept, c);
          });
    case TypeKind::kVarchar:
      return BinaryStringKernel<uint8_t>(
          args, rows, TypeKind::kBoolean,
          [accept](std::string_view x, std::string_view y, uint8_t* out,
                   bool*) {
            int c = x.compare(y);
            c = c < 0 ? -1 : (c > 0 ? 1 : 0);
            *out = BoolOf(accept, c);
          });
    default:
      PRESTO_UNREACHABLE();
  }
}

// Builds a varchar result row by row through a builder lambda.
// F: void(int64_t row, std::string* out, bool* null) for non-null rows.
template <typename F>
BlockPtr VarcharResultKernel(int64_t rows,
                             const std::function<bool(int64_t)>& is_null,
                             F f) {
  std::vector<int32_t> offsets;
  offsets.reserve(static_cast<size_t>(rows) + 1);
  offsets.push_back(0);
  std::string bytes;
  std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
  bool any_null = false;
  std::string scratch;
  for (int64_t i = 0; i < rows; ++i) {
    if (is_null(i)) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
    } else {
      scratch.clear();
      bool null = false;
      f(i, &scratch, &null);
      if (null) {
        nulls[static_cast<size_t>(i)] = 1;
        any_null = true;
      } else {
        bytes += scratch;
      }
    }
    offsets.push_back(static_cast<int32_t>(bytes.size()));
  }
  if (!any_null) nulls.clear();
  return std::make_shared<VarcharBlock>(std::move(offsets), std::move(bytes),
                                        std::move(nulls));
}

// ---------------------------------------------------------------------------
// Row (interpreter) helpers.
// ---------------------------------------------------------------------------

Value DivRow(const std::vector<Value>& args, TypeKind t) {
  if (t == TypeKind::kBigint) {
    int64_t d = args[1].AsBigint();
    if (d == 0) return Value::Null(TypeKind::kBigint);
    return Value::Bigint(args[0].AsBigint() / d);
  }
  double d = args[1].AsDouble();
  if (d == 0.0) return Value::Null(TypeKind::kDouble);
  return Value::Double(args[0].AsDouble() / d);
}

// Row form of the comparison operators. DOUBLE operands compare as the
// typed kernels do (IEEE `<` and `>`), not in Value::Compare's sort order,
// which places NaN above +Infinity.
int CompareValues(const Value& a, const Value& b) {
  if (a.type() == TypeKind::kDouble || b.type() == TypeKind::kDouble) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return a.Compare(b);
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

std::vector<std::string> FunctionRegistry::FunctionNames() const {
  std::vector<std::string> names;
  for (const auto& f : functions_) {
    if (names.empty() || names.back() != f.name) names.push_back(f.name);
  }
  return names;
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
  using TK = TypeKind;
  const TK B = TK::kBigint;
  const TK D = TK::kDouble;
  const TK V = TK::kVarchar;
  const TK BO = TK::kBoolean;
  const TK DT = TK::kDate;

  // ---- Arithmetic ----
  auto arith = [&](const std::string& nm, auto lf, auto df, auto lrow,
                   auto drow) {
    Register({nm, {B, B}, B, true, lrow,
              [lf](const std::vector<BlockPtr>& a, int64_t n) {
                return BinaryKernel<int64_t, int64_t>(a, n, TK::kBigint, lf);
              }});
    Register({nm, {D, D}, D, true, drow,
              [df](const std::vector<BlockPtr>& a, int64_t n) {
                return BinaryKernel<double, double>(a, n, TK::kDouble, df);
              }});
  };
  arith(
      "plus",
      [](int64_t x, int64_t y, int64_t* o, bool*) { *o = x + y; },
      [](double x, double y, double* o, bool*) { *o = x + y; },
      [](const std::vector<Value>& a) {
        return Value::Bigint(a[0].AsBigint() + a[1].AsBigint());
      },
      [](const std::vector<Value>& a) {
        return Value::Double(a[0].AsDouble() + a[1].AsDouble());
      });
  arith(
      "minus",
      [](int64_t x, int64_t y, int64_t* o, bool*) { *o = x - y; },
      [](double x, double y, double* o, bool*) { *o = x - y; },
      [](const std::vector<Value>& a) {
        return Value::Bigint(a[0].AsBigint() - a[1].AsBigint());
      },
      [](const std::vector<Value>& a) {
        return Value::Double(a[0].AsDouble() - a[1].AsDouble());
      });
  arith(
      "multiply",
      [](int64_t x, int64_t y, int64_t* o, bool*) { *o = x * y; },
      [](double x, double y, double* o, bool*) { *o = x * y; },
      [](const std::vector<Value>& a) {
        return Value::Bigint(a[0].AsBigint() * a[1].AsBigint());
      },
      [](const std::vector<Value>& a) {
        return Value::Double(a[0].AsDouble() * a[1].AsDouble());
      });
  // Division by zero yields NULL (documented deviation: the engine has no
  // per-row error channel; Presto raises a query error instead).
  arith(
      "divide",
      [](int64_t x, int64_t y, int64_t* o, bool* null) {
        if (y == 0) {
          *null = true;
        } else {
          *o = x / y;
        }
      },
      [](double x, double y, double* o, bool* null) {
        if (y == 0.0) {
          *null = true;
        } else {
          *o = x / y;
        }
      },
      [](const std::vector<Value>& a) { return DivRow(a, TK::kBigint); },
      [](const std::vector<Value>& a) { return DivRow(a, TK::kDouble); });
  Register({"modulus",
            {B, B},
            B,
            true,
            [](const std::vector<Value>& a) {
              int64_t d = a[1].AsBigint();
              if (d == 0) return Value::Null(TK::kBigint);
              return Value::Bigint(a[0].AsBigint() % d);
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return BinaryKernel<int64_t, int64_t>(
                  a, n, TK::kBigint,
                  [](int64_t x, int64_t y, int64_t* o, bool* null) {
                    if (y == 0) {
                      *null = true;
                    } else {
                      *o = x % y;
                    }
                  });
            }});
  Register({"negate",
            {B},
            B,
            true,
            [](const std::vector<Value>& a) {
              return Value::Bigint(-a[0].AsBigint());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<int64_t, int64_t>(
                  a, n, TK::kBigint,
                  [](int64_t x, int64_t* o, bool*) { *o = -x; });
            }});
  Register({"negate",
            {D},
            D,
            true,
            [](const std::vector<Value>& a) {
              return Value::Double(-a[0].AsDouble());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<double, double>(
                  a, n, TK::kDouble,
                  [](double x, double* o, bool*) { *o = -x; });
            }});

  // ---- Comparisons (all orderable types) ----
  struct CmpDef {
    const char* name;
    bool (*accept)(int);
  };
  const CmpDef cmps[] = {
      {"eq", [](int c) { return c == 0; }},
      {"neq", [](int c) { return c != 0; }},
      {"lt", [](int c) { return c < 0; }},
      {"lte", [](int c) { return c <= 0; }},
      {"gt", [](int c) { return c > 0; }},
      {"gte", [](int c) { return c >= 0; }},
  };
  for (const auto& def : cmps) {
    for (TK t : {B, D, V, BO, DT}) {
      auto accept = def.accept;
      Register({def.name,
                {t, t},
                BO,
                true,
                [accept](const std::vector<Value>& a) {
                  return Value::Boolean(accept(CompareValues(a[0], a[1])));
                },
                [accept, t](const std::vector<BlockPtr>& a, int64_t n) {
                  return CompareKernel(t, a, n, accept);
                }});
    }
  }

  // ---- Logical NOT ----
  Register({"not",
            {BO},
            BO,
            true,
            [](const std::vector<Value>& a) {
              return Value::Boolean(!a[0].AsBoolean());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<uint8_t, uint8_t>(
                  a, n, TK::kBoolean,
                  [](uint8_t x, uint8_t* o, bool*) { *o = x ? 0 : 1; });
            }});

  // ---- String functions ----
  Register({"length",
            {V},
            B,
            true,
            [](const std::vector<Value>& a) {
              return Value::Bigint(
                  static_cast<int64_t>(a[0].AsVarchar().size()));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              DecodedBlock d;
              d.Decode(a[0]);
              std::vector<int64_t> values(static_cast<size_t>(n));
              std::vector<uint8_t> nulls(static_cast<size_t>(n), 0);
              bool any_null = false;
              for (int64_t i = 0; i < n; ++i) {
                if (d.IsNull(i)) {
                  nulls[static_cast<size_t>(i)] = 1;
                  any_null = true;
                } else {
                  values[static_cast<size_t>(i)] =
                      static_cast<int64_t>(d.StringAt(i).size());
                }
              }
              return MakeFlatResult<int64_t>(TK::kBigint, std::move(values),
                                             std::move(nulls), any_null);
            }});
  auto string_map = [&](const std::string& nm,
                        std::string (*f)(std::string_view)) {
    Register({nm,
              {V},
              V,
              true,
              [f](const std::vector<Value>& a) {
                return Value::Varchar(f(a[0].AsVarchar()));
              },
              [f](const std::vector<BlockPtr>& a, int64_t n) {
                DecodedBlock d;
                d.Decode(a[0]);
                return VarcharResultKernel(
                    n, [&d](int64_t i) { return d.IsNull(i); },
                    [&d, f](int64_t i, std::string* out, bool*) {
                      *out = f(d.StringAt(i));
                    });
              }});
  };
  string_map("lower", [](std::string_view s) { return ToLowerAscii(s); });
  string_map("upper", [](std::string_view s) { return ToUpperAscii(s); });
  string_map("trim", [](std::string_view s) {
    size_t b = s.find_first_not_of(' ');
    if (b == std::string_view::npos) return std::string();
    size_t e = s.find_last_not_of(' ');
    return std::string(s.substr(b, e - b + 1));
  });
  Register({"concat",
            {V, V},
            V,
            true,
            [](const std::vector<Value>& a) {
              return Value::Varchar(a[0].AsVarchar() + a[1].AsVarchar());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              DecodedBlock x, y;
              x.Decode(a[0]);
              y.Decode(a[1]);
              return VarcharResultKernel(
                  n,
                  [&](int64_t i) { return x.IsNull(i) || y.IsNull(i); },
                  [&](int64_t i, std::string* out, bool*) {
                    out->append(x.StringAt(i));
                    out->append(y.StringAt(i));
                  });
            }});
  // substr(s, start[, length]): 1-based start per SQL.
  auto substr_impl = [](std::string_view s, int64_t start, int64_t len) {
    if (start < 1) start = 1;
    auto b = static_cast<size_t>(start - 1);
    if (b >= s.size() || len <= 0) return std::string();
    return std::string(s.substr(b, static_cast<size_t>(len)));
  };
  Register({"substr",
            {V, B},
            V,
            true,
            [substr_impl](const std::vector<Value>& a) {
              return Value::Varchar(substr_impl(
                  a[0].AsVarchar(), a[1].AsBigint(),
                  static_cast<int64_t>(a[0].AsVarchar().size())));
            },
            nullptr});
  Register({"substr",
            {V, B, B},
            V,
            true,
            [substr_impl](const std::vector<Value>& a) {
              return Value::Varchar(substr_impl(a[0].AsVarchar(),
                                                a[1].AsBigint(),
                                                a[2].AsBigint()));
            },
            nullptr});
  Register({"strpos",
            {V, V},
            B,
            true,
            [](const std::vector<Value>& a) {
              auto pos = a[0].AsVarchar().find(a[1].AsVarchar());
              return Value::Bigint(
                  pos == std::string::npos ? 0
                                           : static_cast<int64_t>(pos) + 1);
            },
            nullptr});
  Register({"replace",
            {V, V, V},
            V,
            true,
            [](const std::vector<Value>& a) {
              std::string s = a[0].AsVarchar();
              const std::string& from = a[1].AsVarchar();
              const std::string& to = a[2].AsVarchar();
              if (from.empty()) return Value::Varchar(s);
              std::string out;
              size_t pos = 0;
              for (;;) {
                size_t hit = s.find(from, pos);
                if (hit == std::string::npos) {
                  out += s.substr(pos);
                  break;
                }
                out += s.substr(pos, hit - pos);
                out += to;
                pos = hit + from.size();
              }
              return Value::Varchar(out);
            },
            nullptr});
  Register({"like",
            {V, V},
            BO,
            true,
            [](const std::vector<Value>& a) {
              return Value::Boolean(
                  LikeMatch(a[0].AsVarchar(), a[1].AsVarchar()));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return BinaryStringKernel<uint8_t>(
                  a, n, TK::kBoolean,
                  [](std::string_view v, std::string_view p, uint8_t* o,
                     bool*) { *o = LikeMatch(v, p) ? 1 : 0; });
            }});

  // ---- Math ----
  Register({"abs",
            {B},
            B,
            true,
            [](const std::vector<Value>& a) {
              return Value::Bigint(std::llabs(a[0].AsBigint()));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<int64_t, int64_t>(
                  a, n, TK::kBigint,
                  [](int64_t x, int64_t* o, bool*) { *o = x < 0 ? -x : x; });
            }});
  Register({"abs",
            {D},
            D,
            true,
            [](const std::vector<Value>& a) {
              return Value::Double(std::fabs(a[0].AsDouble()));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<double, double>(
                  a, n, TK::kDouble,
                  [](double x, double* o, bool*) { *o = std::fabs(x); });
            }});
  auto dmath = [&](const std::string& nm, double (*f)(double)) {
    Register({nm,
              {D},
              D,
              true,
              [f](const std::vector<Value>& a) {
                return Value::Double(f(a[0].AsDouble()));
              },
              [f](const std::vector<BlockPtr>& a, int64_t n) {
                return UnaryKernel<double, double>(
                    a, n, TK::kDouble,
                    [f](double x, double* o, bool*) { *o = f(x); });
              }});
  };
  dmath("round", [](double x) { return std::round(x); });
  dmath("floor", [](double x) { return std::floor(x); });
  dmath("ceil", [](double x) { return std::ceil(x); });
  dmath("sqrt", [](double x) { return std::sqrt(x); });
  dmath("ln", [](double x) { return std::log(x); });
  dmath("exp", [](double x) { return std::exp(x); });
  Register({"power",
            {D, D},
            D,
            true,
            [](const std::vector<Value>& a) {
              return Value::Double(std::pow(a[0].AsDouble(), a[1].AsDouble()));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return BinaryKernel<double, double>(
                  a, n, TK::kDouble, [](double x, double y, double* o, bool*) {
                    *o = std::pow(x, y);
                  });
            }});
  for (TK t : {B, D, V, DT}) {
    Register({"greatest",
              {t, t},
              t,
              true,
              [](const std::vector<Value>& a) {
                return a[0].Compare(a[1]) >= 0 ? a[0] : a[1];
              },
              nullptr});
    Register({"least",
              {t, t},
              t,
              true,
              [](const std::vector<Value>& a) {
                return a[0].Compare(a[1]) <= 0 ? a[0] : a[1];
              },
              nullptr});
  }

  // ---- Date functions ----
  auto date_part = [&](const std::string& nm, int part) {
    Register({nm,
              {DT},
              B,
              true,
              [part](const std::vector<Value>& a) {
                std::string s = FormatDate(a[0].AsDate());
                // s == YYYY-MM-DD
                int64_t v = 0;
                if (part == 0) {
                  v = std::atoll(s.substr(0, 4).c_str());
                } else if (part == 1) {
                  v = std::atoll(s.substr(5, 2).c_str());
                } else {
                  v = std::atoll(s.substr(8, 2).c_str());
                }
                return Value::Bigint(v);
              },
              nullptr});
  };
  date_part("year", 0);
  date_part("month", 1);
  date_part("day", 2);
  Register({"date_add",
            {DT, B},
            DT,
            true,
            [](const std::vector<Value>& a) {
              return Value::Date(a[0].AsDate() + a[1].AsBigint());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return BinaryKernel<int64_t, int64_t>(
                  a, n, TK::kDate,
                  [](int64_t x, int64_t y, int64_t* o, bool*) { *o = x + y; });
            }});
  Register({"date_diff",
            {DT, DT},
            B,
            true,
            [](const std::vector<Value>& a) {
              return Value::Bigint(a[1].AsDate() - a[0].AsDate());
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return BinaryKernel<int64_t, int64_t>(
                  a, n, TK::kBigint,
                  [](int64_t x, int64_t y, int64_t* o, bool*) { *o = y - x; });
            }});

  // ---- Misc ----
  Register({"hash64",
            {B},
            B,
            true,
            [](const std::vector<Value>& a) {
              return Value::Bigint(static_cast<int64_t>(
                  HashInt64(static_cast<uint64_t>(a[0].AsBigint()))));
            },
            [](const std::vector<BlockPtr>& a, int64_t n) {
              return UnaryKernel<int64_t, int64_t>(
                  a, n, TK::kBigint, [](int64_t x, int64_t* o, bool*) {
                    *o = static_cast<int64_t>(
                        HashInt64(static_cast<uint64_t>(x)));
                  });
            }});
}

}  // namespace presto
