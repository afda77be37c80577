#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "expr/aggregates.h"
#include "expr/evaluator.h"
#include "expr/expression.h"
#include "expr/function_registry.h"
#include "expr/page_processor.h"
#include "vector/block_builder.h"
#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {
namespace {

const ScalarFunction* Fn(const std::string& name,
                         std::vector<TypeKind> args) {
  auto r = FunctionRegistry::Instance().Resolve(name, args);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

ExprPtr Col(int i, TypeKind t) { return Expr::MakeColumn(i, t); }
ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }
ExprPtr Call(const std::string& name, std::vector<ExprPtr> args) {
  std::vector<TypeKind> types;
  for (const auto& a : args) types.push_back(a->type());
  return Expr::MakeCall(Fn(name, types), std::move(args));
}

TEST(FunctionRegistryTest, ResolvesExactAndCoerced) {
  auto* exact = Fn("plus", {TypeKind::kBigint, TypeKind::kBigint});
  EXPECT_EQ(exact->return_type, TypeKind::kBigint);
  // BIGINT + DOUBLE coerces to the DOUBLE overload.
  auto r = FunctionRegistry::Instance().Resolve(
      "plus", {TypeKind::kBigint, TypeKind::kDouble});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->return_type, TypeKind::kDouble);
}

TEST(FunctionRegistryTest, UnknownFunctionAndBadArgs) {
  auto r1 = FunctionRegistry::Instance().Resolve("nope", {TypeKind::kBigint});
  EXPECT_FALSE(r1.ok());
  auto r2 = FunctionRegistry::Instance().Resolve(
      "like", {TypeKind::kBigint, TypeKind::kBigint});
  EXPECT_FALSE(r2.ok());
}

TEST(InterpreterTest, Arithmetic) {
  Page page({MakeBigintBlock({10, 20}), MakeDoubleBlock({0.5, 2.0})});
  auto e = Call("plus", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(5))});
  auto r = EvalExprRow(*e, page, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value::Bigint(25));
}

TEST(InterpreterTest, DivisionByZeroYieldsNull) {
  Page page({MakeBigintBlock({10})});
  auto e = Call("divide", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(0))});
  auto r = EvalExprRow(*e, page, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
}

TEST(InterpreterTest, NullPropagation) {
  Page page({MakeBigintBlock({1, 2}, {0, 1})});
  auto e = Call("plus", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(1))});
  auto r = EvalExprRow(*e, page, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
}

TEST(InterpreterTest, ThreeValuedLogic) {
  Page page({MakeBooleanBlock({true, false, false}, {0, 0, 1})});
  auto null_bool = Col(0, TypeKind::kBoolean);
  // false AND NULL = false
  auto e1 = Expr::MakeAnd({Lit(Value::Boolean(false)), null_bool});
  EXPECT_EQ(*EvalExprRow(*e1, page, 2), Value::Boolean(false));
  // true AND NULL = NULL
  auto e2 = Expr::MakeAnd({Lit(Value::Boolean(true)), null_bool});
  EXPECT_TRUE(EvalExprRow(*e2, page, 2)->is_null());
  // true OR NULL = true
  auto e3 = Expr::MakeOr({null_bool, Lit(Value::Boolean(true))});
  EXPECT_EQ(*EvalExprRow(*e3, page, 2), Value::Boolean(true));
  // false OR NULL = NULL
  auto e4 = Expr::MakeOr({null_bool, Lit(Value::Boolean(false))});
  EXPECT_TRUE(EvalExprRow(*e4, page, 2)->is_null());
}

TEST(InterpreterTest, InSemantics) {
  Page page({MakeBigintBlock({3, 7})});
  auto in1 = Expr::MakeIn({Col(0, TypeKind::kBigint), Lit(Value::Bigint(3)),
                           Lit(Value::Bigint(4))});
  EXPECT_EQ(*EvalExprRow(*in1, page, 0), Value::Boolean(true));
  EXPECT_EQ(*EvalExprRow(*in1, page, 1), Value::Boolean(false));
  // 7 IN (3, NULL) = NULL; 3 IN (3, NULL) = true
  auto in2 = Expr::MakeIn({Col(0, TypeKind::kBigint), Lit(Value::Bigint(3)),
                           Lit(Value::Null(TypeKind::kBigint))});
  EXPECT_EQ(*EvalExprRow(*in2, page, 0), Value::Boolean(true));
  EXPECT_TRUE(EvalExprRow(*in2, page, 1)->is_null());
}

TEST(InterpreterTest, CaseCoalesceIsNull) {
  Page page({MakeBigintBlock({1, 2}, {0, 1})});
  auto c = Col(0, TypeKind::kBigint);
  auto case_expr = Expr::MakeCase(
      {Call("eq", {c, Lit(Value::Bigint(1))}), Lit(Value::Varchar("one")),
       Lit(Value::Varchar("other"))},
      /*has_else=*/true, TypeKind::kVarchar);
  EXPECT_EQ(*EvalExprRow(*case_expr, page, 0), Value::Varchar("one"));
  EXPECT_EQ(*EvalExprRow(*case_expr, page, 1), Value::Varchar("other"));
  auto coalesce =
      Expr::MakeCoalesce({c, Lit(Value::Bigint(99))}, TypeKind::kBigint);
  EXPECT_EQ(*EvalExprRow(*coalesce, page, 1), Value::Bigint(99));
  auto is_null = Expr::MakeIsNull(c);
  EXPECT_EQ(*EvalExprRow(*is_null, page, 1), Value::Boolean(true));
  EXPECT_EQ(*EvalExprRow(*is_null, page, 0), Value::Boolean(false));
}

TEST(CastTest, Conversions) {
  EXPECT_EQ(CastValue(TypeKind::kDouble, Value::Bigint(3)), Value::Double(3));
  EXPECT_EQ(CastValue(TypeKind::kBigint, Value::Double(3.9)),
            Value::Bigint(3));
  EXPECT_EQ(CastValue(TypeKind::kVarchar, Value::Bigint(12)),
            Value::Varchar("12"));
  EXPECT_EQ(CastValue(TypeKind::kBigint, Value::Varchar("42")),
            Value::Bigint(42));
  EXPECT_TRUE(CastValue(TypeKind::kBigint, Value::Varchar("4x")).is_null());
  int64_t days = 0;
  ASSERT_TRUE(ParseDate("2001-02-03", &days));
  EXPECT_EQ(CastValue(TypeKind::kDate, Value::Varchar("2001-02-03")),
            Value::Date(days));
  EXPECT_EQ(CastValue(TypeKind::kVarchar, Value::Date(days)),
            Value::Varchar("2001-02-03"));
  EXPECT_EQ(CastValue(TypeKind::kBoolean, Value::Varchar("true")),
            Value::Boolean(true));
  EXPECT_TRUE(CastValue(TypeKind::kDate, Value::Varchar("zzz")).is_null());
}

// Property test: the interpreter and the compiled vectorized evaluator agree
// on every row for a corpus of expressions over random data.
class EvaluatorEquivalenceTest
    : public ::testing::TestWithParam<int> {};

Page RandomPage(Random* rng, int64_t rows) {
  std::vector<int64_t> a(static_cast<size_t>(rows));
  std::vector<uint8_t> an(static_cast<size_t>(rows));
  std::vector<double> b(static_cast<size_t>(rows));
  std::vector<uint8_t> bn(static_cast<size_t>(rows));
  std::vector<std::string> s(static_cast<size_t>(rows));
  std::vector<uint8_t> sn(static_cast<size_t>(rows));
  std::vector<uint8_t> f(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    auto k = static_cast<size_t>(i);
    a[k] = rng->NextInt64(-100, 100);
    an[k] = rng->NextBool(0.2) ? 1 : 0;
    b[k] = rng->NextDouble() * 10 - 5;
    bn[k] = rng->NextBool(0.2) ? 1 : 0;
    s[k] = rng->NextString(static_cast<int>(rng->NextUint64(8)));
    sn[k] = rng->NextBool(0.2) ? 1 : 0;
    f[k] = rng->NextBool(0.5) ? 1 : 0;
  }
  return Page({MakeBigintBlock(std::move(a), std::move(an)),
               MakeDoubleBlock(std::move(b), std::move(bn)),
               MakeVarcharBlock(s, std::move(sn)),
               MakeBooleanBlock(std::vector<bool>(f.begin(), f.end()))});
}

std::vector<ExprPtr> ExpressionCorpus() {
  auto a = Col(0, TypeKind::kBigint);
  auto b = Col(1, TypeKind::kDouble);
  auto s = Col(2, TypeKind::kVarchar);
  auto f = Col(3, TypeKind::kBoolean);
  std::vector<ExprPtr> corpus;
  corpus.push_back(Call("plus", {a, Lit(Value::Bigint(7))}));
  corpus.push_back(Call("multiply", {b, b}));
  corpus.push_back(
      Call("divide", {a, Call("modulus", {a, Lit(Value::Bigint(5))})}));
  corpus.push_back(Call("gt", {a, Lit(Value::Bigint(0))}));
  corpus.push_back(Call("lte", {b, Lit(Value::Double(0.5))}));
  corpus.push_back(Call("eq", {s, Lit(Value::Varchar("abc"))}));
  corpus.push_back(Call("like", {s, Lit(Value::Varchar("a%"))}));
  corpus.push_back(Call("length", {s}));
  corpus.push_back(Call("concat", {s, Lit(Value::Varchar("!"))}));
  corpus.push_back(Call("upper", {s}));
  corpus.push_back(Expr::MakeAnd(
      {Call("gt", {a, Lit(Value::Bigint(-10))}), f,
       Call("lt", {b, Lit(Value::Double(4.0))})}));
  corpus.push_back(Expr::MakeOr(
      {Call("lt", {a, Lit(Value::Bigint(-50))}), Expr::MakeIsNull(s)}));
  corpus.push_back(Expr::MakeIn(
      {a, Lit(Value::Bigint(1)), Lit(Value::Bigint(2)),
       Lit(Value::Null(TypeKind::kBigint))}));
  corpus.push_back(Expr::MakeCoalesce({a, Lit(Value::Bigint(0))},
                                      TypeKind::kBigint));
  corpus.push_back(Expr::MakeCase(
      {Call("gt", {a, Lit(Value::Bigint(50))}), Lit(Value::Varchar("high")),
       Call("gt", {a, Lit(Value::Bigint(0))}), Lit(Value::Varchar("mid")),
       Lit(Value::Varchar("low"))},
      true, TypeKind::kVarchar));
  corpus.push_back(Expr::MakeCast(TypeKind::kDouble, a));
  corpus.push_back(Expr::MakeCast(TypeKind::kVarchar, a));
  corpus.push_back(Call("abs", {a}));
  corpus.push_back(Call("sqrt", {Call("abs", {b})}));
  corpus.push_back(Call("date_add", {Expr::MakeCast(TypeKind::kDate, a),
                                     Lit(Value::Bigint(30))}));
  return corpus;
}

TEST_P(EvaluatorEquivalenceTest, InterpretedMatchesCompiled) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  Page page = RandomPage(&rng, 128);
  for (const auto& expr : ExpressionCorpus()) {
    ExprEvaluator interp(expr, EvalMode::kInterpreted);
    ExprEvaluator compiled(expr, EvalMode::kCompiled);
    auto ri = interp.Eval(page);
    auto rc = compiled.Eval(page);
    ASSERT_TRUE(ri.ok()) << expr->ToString() << ": " << ri.status().ToString();
    ASSERT_TRUE(rc.ok()) << expr->ToString() << ": " << rc.status().ToString();
    for (int64_t row = 0; row < page.num_rows(); ++row) {
      Value vi = (*ri)->GetValue(row);
      Value vc = (*rc)->GetValue(row);
      EXPECT_EQ(vi.is_null(), vc.is_null())
          << expr->ToString() << " row " << row;
      if (!vi.is_null() && !vc.is_null()) {
        EXPECT_TRUE(vi.SqlEquals(vc) || vi.Compare(vc) == 0)
            << expr->ToString() << " row " << row << ": " << vi.ToString()
            << " vs " << vc.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorEquivalenceTest,
                         ::testing::Range(0, 8));

// Same type, same nullness, same value; DOUBLEs match bit for bit up to
// the NaN payload, so -0.0 and 0.0 differ.
::testing::AssertionResult SameValue(const Value& a, const Value& b) {
  bool same = a.type() == b.type() && a.is_null() == b.is_null();
  if (same && !a.is_null()) {
    if (a.type() == TypeKind::kDouble) {
      double x = a.AsDouble();
      double y = b.AsDouble();
      same = std::isnan(x) ? std::isnan(y)
                           : x == y && std::signbit(x) == std::signbit(y);
    } else {
      same = a == b;
    }
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a.ToString() << " (" << TypeToString(a.type()) << ") vs "
         << b.ToString() << " (" << TypeToString(b.type()) << ")";
}

// Evaluates fn(args) in both modes, once over literal arguments (the
// all-constant path) and once over one-row flat columns.
std::vector<Value> EvalBothWays(const std::string& name,
                                const std::vector<Value>& args) {
  std::vector<TypeKind> types;
  std::vector<ExprPtr> literals;
  std::vector<ExprPtr> columns;
  std::vector<BlockPtr> blocks;
  for (size_t i = 0; i < args.size(); ++i) {
    types.push_back(args[i].type());
    literals.push_back(Lit(args[i]));
    columns.push_back(Col(static_cast<int>(i), args[i].type()));
    BlockBuilder builder(args[i].type());
    builder.AppendValue(args[i]);
    blocks.push_back(builder.Build());
  }
  const ScalarFunction* fn = Fn(name, types);
  Page page(std::move(blocks), 1);
  std::vector<Value> out;
  for (const auto& expr : {Expr::MakeCall(fn, literals),
                           Expr::MakeCall(fn, columns)}) {
    for (EvalMode mode : {EvalMode::kInterpreted, EvalMode::kCompiled}) {
      auto r = ExprEvaluator(expr, mode).Eval(page);
      EXPECT_TRUE(r.ok()) << expr->ToString() << ": " << r.status().ToString();
      if (r.ok()) out.push_back((*r)->GetValue(0));
    }
  }
  return out;
}

Value DateOf(const std::string& text) {
  int64_t days = 0;
  EXPECT_TRUE(ParseDate(text, &days)) << text;
  return Value::Date(days);
}

// Edge-case results pinned from the boxed row functions and typed kernels
// that each overload's single body replaced.
TEST(ScalarEdgeCaseTest, PinnedResults) {
  const double kNaN = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();
  auto D = [](double d) { return Value::Double(d); };
  auto B = [](int64_t v) { return Value::Bigint(v); };
  auto V = [](const char* s) { return Value::Varchar(s); };
  auto T = [](bool b) { return Value::Boolean(b); };
  struct Case {
    std::string name;
    std::vector<Value> args;
    Value expected;
  };
  const std::vector<Case> cases = {
      // DOUBLE comparisons map IEEE `<` and `>` to a three-way result, so a
      // NaN operand compares as equal to anything.
      {"eq", {D(kNaN), D(0.0)}, T(true)},
      {"eq", {D(kNaN), D(kNaN)}, T(true)},
      {"neq", {D(kNaN), D(1.0)}, T(false)},
      {"lt", {D(kNaN), D(1.0)}, T(false)},
      {"lte", {D(kNaN), D(1.0)}, T(true)},
      {"gt", {D(kNaN), D(-kInf)}, T(false)},
      {"gte", {D(kInf), D(kNaN)}, T(true)},
      {"eq", {D(-0.0), D(0.0)}, T(true)},
      {"lt", {D(-0.0), D(0.0)}, T(false)},
      {"lt", {D(-kInf), D(kInf)}, T(true)},
      {"gt", {D(kInf), D(1e308)}, T(true)},
      {"eq", {D(kInf), D(kInf)}, T(true)},
      // greatest/least keep Value::Compare's order: NaN above +Infinity,
      // -0.0 equal to 0.0, ties return the first argument.
      {"greatest", {D(kNaN), D(0.0)}, D(kNaN)},
      {"least", {D(kNaN), D(0.0)}, D(0.0)},
      {"greatest", {D(0.0), D(kNaN)}, D(kNaN)},
      {"greatest", {D(kInf), D(kNaN)}, D(kNaN)},
      {"least", {D(-kInf), D(kNaN)}, D(-kInf)},
      {"least", {D(kInf), D(kNaN)}, D(kInf)},
      {"greatest", {D(-0.0), D(0.0)}, D(-0.0)},
      {"least", {D(0.0), D(-0.0)}, D(0.0)},
      {"greatest", {B(3), B(-7)}, B(3)},
      {"least", {V("b"), V("ab")}, V("ab")},
      {"greatest", {DateOf("1969-12-31"), DateOf("1970-01-01")},
       DateOf("1970-01-01")},
      // substr: 1-based start; a start below 1 reads from the first
      // character; past the end or a length <= 0 gives ''.
      {"substr", {V("hello"), B(0)}, V("hello")},
      {"substr", {V("hello"), B(-3)}, V("hello")},
      {"substr", {V("hello"), B(5)}, V("o")},
      {"substr", {V("hello"), B(6)}, V("")},
      {"substr", {V(""), B(1)}, V("")},
      {"substr", {V("hello"), B(0), B(2)}, V("he")},
      {"substr", {V("hello"), B(4), B(100)}, V("lo")},
      {"substr", {V("hello"), B(2), B(0)}, V("")},
      {"substr", {V("hello"), B(2), B(-1)}, V("")},
      {"substr", {V("hello"), B(9), B(2)}, V("")},
      // strpos: 1-based, 0 when absent.
      {"strpos", {V("hello"), V("z")}, B(0)},
      {"strpos", {V("hello"), V("l")}, B(3)},
      {"strpos", {V("hello"), V("")}, B(1)},
      {"strpos", {V(""), V("a")}, B(0)},
      // replace with an empty pattern returns the input.
      {"replace", {V("abc"), V(""), V("x")}, V("abc")},
      {"replace", {V("aaa"), V("a"), V("bb")}, V("bbbbbb")},
      {"replace", {V("abab"), V("ab"), V("")}, V("")},
      // Date parts before 1970.
      {"year", {DateOf("1969-12-31")}, B(1969)},
      {"month", {DateOf("1969-12-31")}, B(12)},
      {"day", {DateOf("1969-12-31")}, B(31)},
      {"year", {DateOf("1900-02-28")}, B(1900)},
      {"month", {DateOf("1900-02-28")}, B(2)},
      {"day", {DateOf("1900-03-01")}, B(1)},
      {"year", {DateOf("0001-01-01")}, B(1)},
      {"length", {V("")}, B(0)},
      // Division and modulus by zero yield NULL (documented deviation).
      {"divide", {B(1), B(0)}, Value::Null(TypeKind::kBigint)},
      {"divide", {D(1.0), D(-0.0)}, Value::Null(TypeKind::kDouble)},
      {"modulus", {B(7), B(0)}, Value::Null(TypeKind::kBigint)},
      {"modulus", {B(-7), B(3)}, B(-1)},
      {"divide", {B(-7), B(2)}, B(-3)},
  };
  for (const auto& c : cases) {
    std::string call = c.name + "(";
    for (size_t i = 0; i < c.args.size(); ++i) {
      call += (i > 0 ? ", " : "") + c.args[i].ToString();
    }
    SCOPED_TRACE(call + ")");
    std::vector<Value> results = EvalBothWays(c.name, c.args);
    ASSERT_EQ(results.size(), 4u);
    for (const Value& r : results) EXPECT_TRUE(SameValue(r, c.expected));
  }
}

// INT64_MIN / -1 and INT64_MIN % -1 used to trap (SIGFPE) in both modes,
// and in constant folding, which calls the row form.
TEST(ScalarEdgeCaseTest, BigintDivisionOverflow) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  Page page({MakeBigintBlock({kMin, 6}), MakeBigintBlock({-1, -1})});
  auto a = Col(0, TypeKind::kBigint);
  auto b = Col(1, TypeKind::kBigint);
  auto min = Lit(Value::Bigint(kMin));
  auto minus_one = Lit(Value::Bigint(-1));
  for (EvalMode mode : {EvalMode::kInterpreted, EvalMode::kCompiled}) {
    for (const auto& e : {Call("divide", {a, b}), Call("divide", {min, b}),
                          Call("divide", {min, minus_one})}) {
      auto r = ExprEvaluator(e, mode).Eval(page);
      ASSERT_FALSE(r.ok()) << e->ToString();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(r.status().message(), "bigint division overflow");
    }
    for (const auto& e :
         {Call("modulus", {a, b}), Call("modulus", {min, minus_one})}) {
      auto r = ExprEvaluator(e, mode).Eval(page);
      ASSERT_TRUE(r.ok()) << e->ToString() << ": " << r.status().ToString();
      EXPECT_EQ((*r)->GetValue(0), Value::Bigint(0));
      EXPECT_EQ((*r)->GetValue(1), Value::Bigint(0));
    }
  }
  EXPECT_FALSE(EvalConstantExpr(*Call("divide", {min, minus_one})).ok());
  EXPECT_EQ(*EvalConstantExpr(*Call("modulus", {min, minus_one})),
            Value::Bigint(0));
}

// BIGINT +, -, * and unary - used to wrap (signed-overflow UB); they fail
// in both modes and in constant folding. DOUBLE overflow stays IEEE.
TEST(ScalarEdgeCaseTest, BigintOverflowFails) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  Page page({MakeBigintBlock({kMax, 1}), MakeBigintBlock({1, 1}),
             MakeBigintBlock({kMin, 1})});
  auto big = Col(0, TypeKind::kBigint);
  auto one = Col(1, TypeKind::kBigint);
  auto small = Col(2, TypeKind::kBigint);
  struct Case {
    ExprPtr expr;
    const char* message;
  };
  const std::vector<Case> cases = {
      {Call("plus", {big, one}), "bigint addition overflow"},
      {Call("minus", {small, one}), "bigint subtraction overflow"},
      {Call("multiply", {big, Lit(Value::Bigint(2))}),
       "bigint multiplication overflow"},
      {Call("negate", {small}), "bigint negation overflow"},
  };
  for (EvalMode mode : {EvalMode::kInterpreted, EvalMode::kCompiled}) {
    for (const auto& c : cases) {
      auto r = ExprEvaluator(c.expr, mode).Eval(page);
      ASSERT_FALSE(r.ok()) << c.expr->ToString();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(r.status().message(), c.message);
    }
    // In range: exact results, including the extremes themselves.
    auto r = ExprEvaluator(Call("minus", {big, one}), mode).Eval(page);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0), Value::Bigint(kMax - 1));
    r = ExprEvaluator(Call("plus", {small, one}), mode).Eval(page);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0), Value::Bigint(kMin + 1));
    r = ExprEvaluator(Call("multiply", {small, one}), mode).Eval(page);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0), Value::Bigint(kMin));
  }
  auto max = Lit(Value::Bigint(kMax));
  auto folded = EvalConstantExpr(*Call("plus", {max, Lit(Value::Bigint(1))}));
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().message(), "bigint addition overflow");
  EXPECT_FALSE(EvalConstantExpr(*Call("negate", {Lit(Value::Bigint(kMin))}))
                   .ok());
  // DOUBLE: overflow is +Infinity, not an error.
  auto inf = EvalConstantExpr(*Call(
      "multiply", {Lit(Value::Double(1e308)), Lit(Value::Double(10))}));
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(inf->AsDouble()));
}

Value RandomScalar(Random* rng, TypeKind type) {
  switch (type) {
    case TypeKind::kBigint:
      // Small values make division and modulus by 0 and -1 common; the
      // rest stay within +-2^31 so no body overflows.
      return Value::Bigint(rng->NextBool(0.3)
                               ? rng->NextInt64(-2, 2)
                               : rng->NextInt64(-(int64_t{1} << 31),
                                                int64_t{1} << 31));
    case TypeKind::kDate:
      return Value::Date(rng->NextInt64(-40000, 40000));
    case TypeKind::kDouble: {
      const double kSpecial[] = {std::nan(""), 0.0, -0.0,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
      if (rng->NextBool(0.25)) return Value::Double(kSpecial[rng->NextUint64(5)]);
      return Value::Double(rng->NextDouble() * 20 - 10);
    }
    case TypeKind::kBoolean:
      return Value::Boolean(rng->NextBool(0.5));
    case TypeKind::kVarchar: {
      // Few distinct characters, so LIKE, strpos and replace find matches.
      std::string s(rng->NextUint64(6), ' ');
      for (char& c : s) c = " ab%_"[rng->NextUint64(5)];
      return Value::Varchar(s);
    }
    default:
      ADD_FAILURE() << "no generator for " << TypeToString(type);
      return Value::Null(type);
  }
}

// A random block of `type`: flat, dictionary or RLE (`encoding` 0, 1, 2),
// with no, some or all NULLs (`nulls` 0, 1, 2).
BlockPtr RandomBlock(Random* rng, TypeKind type, int64_t rows, int encoding,
                     int nulls) {
  auto next = [&] {
    bool null = nulls == 2 || (nulls == 1 && rng->NextBool(0.3));
    return null ? Value::Null(type) : RandomScalar(rng, type);
  };
  if (encoding == 2) return MakeConstantBlock(next(), rows);
  BlockBuilder builder(type);
  const int64_t distinct = encoding == 1 ? 5 : rows;
  for (int64_t i = 0; i < distinct; ++i) builder.AppendValue(next());
  if (encoding == 0) return builder.Build();
  std::vector<int32_t> indices(static_cast<size_t>(rows));
  for (auto& i : indices) i = static_cast<int32_t>(rng->NextUint64(5));
  return std::make_shared<DictionaryBlock>(builder.Build(), indices);
}

// Every registered overload: the row form (interpreter) and the column form
// (compiled) agree on every row, for every argument encoding and NULL mix.
TEST(FunctionRegistryTest, EveryOverloadRowAndColumnFormsAgree) {
  const auto& overloads = FunctionRegistry::Instance().overloads();
  ASSERT_FALSE(overloads.empty());
  constexpr int64_t kRows = 64;
  Random rng(20190408);
  for (const ScalarFunction& fn : overloads) {
    std::vector<ExprPtr> columns;
    for (size_t i = 0; i < fn.arg_types.size(); ++i) {
      columns.push_back(Col(static_cast<int>(i), fn.arg_types[i]));
    }
    ExprPtr expr = Expr::MakeCall(&fn, columns);
    // Encodings 0-2 give every argument the same encoding; 3 mixes them.
    for (int encoding = 0; encoding < 4; ++encoding) {
      for (int nulls = 0; nulls < 3; ++nulls) {
        std::vector<BlockPtr> blocks;
        for (size_t i = 0; i < fn.arg_types.size(); ++i) {
          int e = encoding < 3 ? encoding : static_cast<int>(i % 3);
          blocks.push_back(
              RandomBlock(&rng, fn.arg_types[i], kRows, e, nulls));
        }
        Page page(std::move(blocks), kRows);
        SCOPED_TRACE(expr->ToString() + " encoding " +
                     std::to_string(encoding) + " nulls " +
                     std::to_string(nulls));
        auto ri = ExprEvaluator(expr, EvalMode::kInterpreted).Eval(page);
        auto rc = ExprEvaluator(expr, EvalMode::kCompiled).Eval(page);
        ASSERT_TRUE(ri.ok()) << ri.status().ToString();
        ASSERT_TRUE(rc.ok()) << rc.status().ToString();
        ASSERT_EQ((*rc)->type(), fn.return_type);
        for (int64_t row = 0; row < kRows; ++row) {
          Value vi = (*ri)->GetValue(row);
          ASSERT_TRUE(SameValue(vi, (*rc)->GetValue(row))) << "row " << row;
          if (nulls == 2) {
            EXPECT_TRUE(vi.is_null()) << "row " << row;
          }
        }
      }
    }
  }
}

TEST(VectorEvalTest, ConstantsFoldToRle) {
  Page page({MakeBigintBlock(std::vector<int64_t>(100, 1))});
  auto e = Call("plus", {Lit(Value::Bigint(2)), Lit(Value::Bigint(3))});
  ExprEvaluator eval(e, EvalMode::kCompiled);
  auto r = eval.Eval(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->encoding(), BlockEncoding::kRle);
  EXPECT_EQ((*r)->GetValue(42), Value::Bigint(5));
}

TEST(VectorEvalTest, ColumnPassThroughPreservesEncoding) {
  auto dict = MakeVarcharBlock({"a", "b"});
  Page page({std::make_shared<DictionaryBlock>(
      dict, std::vector<int32_t>{0, 1, 0})});
  ExprEvaluator eval(Col(0, TypeKind::kVarchar), EvalMode::kCompiled);
  auto r = eval.Eval(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->encoding(), BlockEncoding::kDictionary);
}

TEST(PageProcessorTest, FilterAndProject) {
  Page page({MakeBigintBlock({1, 2, 3, 4, 5}),
             MakeDoubleBlock({0.1, 0.2, 0.3, 0.4, 0.5})});
  auto filter = Call("gt", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(2))});
  auto proj = Call("multiply", {Col(1, TypeKind::kDouble),
                                Lit(Value::Double(10))});
  PageProcessor proc(filter, {Col(0, TypeKind::kBigint), proj},
                     EvalMode::kCompiled);
  auto r = proc.Process(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->block(0)->GetValue(0), Value::Bigint(3));
  EXPECT_NEAR(r->block(1)->GetValue(2).AsDouble(), 5.0, 1e-9);
}

TEST(PageProcessorTest, DictionaryFastPathProducesDictionary) {
  auto dict = MakeVarcharBlock({"apple", "banana", "cherry"});
  std::vector<int32_t> indices;
  for (int i = 0; i < 1000; ++i) indices.push_back(i % 3);
  Page page({std::make_shared<DictionaryBlock>(dict, indices)});
  auto proj = Call("upper", {Col(0, TypeKind::kVarchar)});
  PageProcessor proc(nullptr, {proj}, EvalMode::kCompiled);
  auto r = proc.Process(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->block(0)->encoding(), BlockEncoding::kDictionary);
  EXPECT_EQ(r->block(0)->GetValue(1), Value::Varchar("BANANA"));
  EXPECT_EQ(proc.stats().dict_path_hits, 1);
  EXPECT_EQ(proc.stats().flat_evals, 0);
}

TEST(PageProcessorTest, SharedDictionaryReusesResult) {
  auto dict = MakeVarcharBlock({"x", "y"});
  auto proj = Call("upper", {Col(0, TypeKind::kVarchar)});
  PageProcessor proc(nullptr, {proj}, EvalMode::kCompiled);
  for (int p = 0; p < 3; ++p) {
    std::vector<int32_t> indices(64, p % 2);
    Page page({std::make_shared<DictionaryBlock>(dict, indices)});
    auto r = proc.Process(page);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(proc.stats().dict_path_hits, 1);
  EXPECT_EQ(proc.stats().dict_path_reuses, 2);
}

TEST(PageProcessorTest, SpeculationStopsWhenDictionaryTooLarge) {
  // Dictionary with many more entries than rows and no history: the first
  // page (rows >= entries referenced is false) should fall back to flat
  // evaluation once the heuristic sees an unproductive history.
  std::vector<std::string> entries;
  for (int i = 0; i < 1000; ++i) entries.push_back("v" + std::to_string(i));
  auto dict = MakeVarcharBlock(entries);
  auto proj = Call("upper", {Col(0, TypeKind::kVarchar)});
  PageProcessor proc(nullptr, {proj}, EvalMode::kCompiled);
  // First page: speculation allowed (no history). 8 rows vs 1000 entries.
  {
    std::vector<int32_t> indices(8, 0);
    Page page({std::make_shared<DictionaryBlock>(dict, indices)});
    ASSERT_TRUE(proc.Process(page).ok());
  }
  // Second page with a NEW large dictionary: history now shows dictionary
  // processing was wasteful (8 rows per 1000 entries), so it evaluates flat.
  auto dict2 = MakeVarcharBlock(entries);
  {
    std::vector<int32_t> indices(8, 1);
    Page page({std::make_shared<DictionaryBlock>(dict2, indices)});
    ASSERT_TRUE(proc.Process(page).ok());
  }
  EXPECT_EQ(proc.stats().dict_path_hits, 1);
  EXPECT_EQ(proc.stats().flat_evals, 1);
}

// The dictionary fast path evaluates every dictionary entry, also those no
// row references. An entry that fails must not fail the page; one a row
// references must.
TEST(PageProcessorTest, DictionaryEntryErrorsCountOnlyWhenReferenced) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  auto dict = MakeBigintBlock({kMin, 6, 10});
  auto proj = Call("divide", {Col(0, TypeKind::kBigint),
                              Lit(Value::Bigint(-1))});
  for (EvalMode mode : {EvalMode::kCompiled, EvalMode::kInterpreted}) {
    PageProcessor proc(nullptr, {proj}, mode);
    Page unreferenced(
        {std::make_shared<DictionaryBlock>(dict, std::vector<int32_t>{1, 2, 1})});
    auto r = proc.Process(unreferenced);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->block(0)->GetValue(0), Value::Bigint(-6));
    EXPECT_EQ(r->block(0)->GetValue(1), Value::Bigint(-10));
    Page referenced(
        {std::make_shared<DictionaryBlock>(dict, std::vector<int32_t>{1, 0})});
    auto failed = proc.Process(referenced);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().message(), "bigint division overflow");
  }
}

TEST(PageProcessorTest, RlePathEvaluatesOnce) {
  Page page({MakeConstantBlock(Value::Bigint(21), 500)});
  auto proj = Call("multiply", {Col(0, TypeKind::kBigint),
                                Lit(Value::Bigint(2))});
  PageProcessor proc(nullptr, {proj}, EvalMode::kCompiled);
  auto r = proc.Process(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->block(0)->encoding(), BlockEncoding::kRle);
  EXPECT_EQ(r->block(0)->GetValue(499), Value::Bigint(42));
  EXPECT_EQ(proc.stats().rle_path_hits, 1);
}

TEST(PageProcessorTest, FilterOnDictionaryColumn) {
  auto dict = MakeBigintBlock({1, 2, 3});
  std::vector<int32_t> indices;
  for (int i = 0; i < 300; ++i) indices.push_back(i % 3);
  Page page({std::make_shared<DictionaryBlock>(dict, indices)});
  auto filter = Call("eq", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(2))});
  PageProcessor proc(filter, {Col(0, TypeKind::kBigint)}, EvalMode::kCompiled);
  auto r = proc.Process(page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 100);
  EXPECT_EQ(r->block(0)->GetValue(0), Value::Bigint(2));
}

// ---- Aggregates ----

TEST(AggregatesTest, ResolveSignatures) {
  auto count = ResolveAggregate("count", std::nullopt, false);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->kind, AggKind::kCountAll);
  auto sum = ResolveAggregate("sum", TypeKind::kDouble, false);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->result_type, TypeKind::kDouble);
  EXPECT_FALSE(ResolveAggregate("sum", TypeKind::kVarchar, false).ok());
  EXPECT_FALSE(ResolveAggregate("sum", TypeKind::kBigint, true).ok());
  EXPECT_FALSE(ResolveAggregate("frob", TypeKind::kBigint, false).ok());
}

std::vector<int32_t> Groups(std::initializer_list<int32_t> ids) {
  return std::vector<int32_t>(ids);
}

TEST(AggregatesTest, CountAndSum) {
  auto sig = *ResolveAggregate("sum", TypeKind::kBigint, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(2);
  auto groups = Groups({0, 1, 0, 1, 0});
  auto arg = MakeBigintBlock({1, 2, 3, 4, 5}, {0, 0, 0, 1, 0});
  acc->Add(groups.data(), arg, 5);
  auto out = acc->BuildFinal(2);
  EXPECT_EQ(out->GetValue(0), Value::Bigint(9));
  EXPECT_EQ(out->GetValue(1), Value::Bigint(2));
}

TEST(AggregatesTest, SumEmptyGroupIsNull) {
  auto sig = *ResolveAggregate("sum", TypeKind::kBigint, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(2);
  auto groups = Groups({0});
  acc->Add(groups.data(), MakeBigintBlock({7}), 1);
  auto out = acc->BuildFinal(2);
  EXPECT_EQ(out->GetValue(0), Value::Bigint(7));
  EXPECT_TRUE(out->IsNull(1));
}

TEST(AggregatesTest, MinMaxAllTypes) {
  auto sig = *ResolveAggregate("min", TypeKind::kVarchar, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(1);
  auto groups = Groups({0, 0, 0});
  acc->Add(groups.data(), MakeVarcharBlock({"pear", "apple", "plum"}), 3);
  EXPECT_EQ(acc->BuildFinal(1)->GetValue(0), Value::Varchar("apple"));

  auto sig2 = *ResolveAggregate("max", TypeKind::kDouble, false);
  auto acc2 = CreateAccumulator(sig2);
  acc2->Resize(1);
  acc2->Add(groups.data(), MakeDoubleBlock({1.5, 9.5, -2.0}), 3);
  EXPECT_EQ(acc2->BuildFinal(1)->GetValue(0), Value::Double(9.5));
}

TEST(AggregatesTest, AvgPartialFinalRoundTrip) {
  auto sig = *ResolveAggregate("avg", TypeKind::kBigint, false);
  // Two partials, then merge into a final.
  auto p1 = CreateAccumulator(sig);
  p1->Resize(1);
  auto g3 = Groups({0, 0, 0});
  p1->Add(g3.data(), MakeBigintBlock({1, 2, 3}), 3);
  auto p2 = CreateAccumulator(sig);
  p2->Resize(1);
  auto g2 = Groups({0, 0});
  p2->Add(g2.data(), MakeBigintBlock({4, 10}), 2);

  auto fin = CreateAccumulator(sig);
  fin->Resize(1);
  auto g1 = Groups({0});
  ASSERT_TRUE(fin->Merge(g1.data(), p1->BuildIntermediate(1), 1).ok());
  ASSERT_TRUE(fin->Merge(g1.data(), p2->BuildIntermediate(1), 1).ok());
  EXPECT_NEAR(fin->BuildFinal(1)->GetValue(0).AsDouble(), 4.0, 1e-9);
}

TEST(AggregatesTest, CountDistinctExactAcrossMerge) {
  auto sig = *ResolveAggregate("count", TypeKind::kVarchar, true);
  auto p1 = CreateAccumulator(sig);
  p1->Resize(1);
  auto g3 = Groups({0, 0, 0});
  p1->Add(g3.data(), MakeVarcharBlock({"a", "b", "a"}), 3);
  auto p2 = CreateAccumulator(sig);
  p2->Resize(1);
  auto g2 = Groups({0, 0});
  p2->Add(g2.data(), MakeVarcharBlock({"b", "c"}), 2);
  auto fin = CreateAccumulator(sig);
  fin->Resize(1);
  auto g1 = Groups({0});
  ASSERT_TRUE(fin->Merge(g1.data(), p1->BuildIntermediate(1), 1).ok());
  ASSERT_TRUE(fin->Merge(g1.data(), p2->BuildIntermediate(1), 1).ok());
  EXPECT_EQ(fin->BuildFinal(1)->GetValue(0), Value::Bigint(3));
}

TEST(AggregatesTest, ApproxDistinctWithinErrorBound) {
  auto sig = *ResolveAggregate("approx_distinct", TypeKind::kBigint, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(1);
  const int64_t kDistinct = 20000;
  std::vector<int64_t> values;
  std::vector<int32_t> groups;
  for (int64_t i = 0; i < kDistinct; ++i) {
    values.push_back(i);
    groups.push_back(0);
  }
  acc->Add(groups.data(), MakeBigintBlock(values), kDistinct);
  int64_t est = acc->BuildFinal(1)->GetValue(0).AsBigint();
  // 2^11 registers -> ~2.3% standard error; allow 5x.
  EXPECT_NEAR(static_cast<double>(est), static_cast<double>(kDistinct),
              0.12 * static_cast<double>(kDistinct));
}

TEST(AggregatesTest, StddevAndVariance) {
  auto sig = *ResolveAggregate("stddev", TypeKind::kDouble, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(1);
  auto groups = Groups({0, 0, 0, 0});
  acc->Add(groups.data(), MakeDoubleBlock({2, 4, 4, 6}), 4);
  // Sample variance of {2,4,4,6} = 8/3.
  auto sig2 = *ResolveAggregate("variance", TypeKind::kDouble, false);
  auto acc2 = CreateAccumulator(sig2);
  acc2->Resize(1);
  acc2->Add(groups.data(), MakeDoubleBlock({2, 4, 4, 6}), 4);
  EXPECT_NEAR(acc2->BuildFinal(1)->GetValue(0).AsDouble(), 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(acc->BuildFinal(1)->GetValue(0).AsDouble(),
              std::sqrt(8.0 / 3.0), 1e-9);
}

TEST(AggregatesTest, SingleValueGroupStddevIsNull) {
  auto sig = *ResolveAggregate("stddev", TypeKind::kDouble, false);
  auto acc = CreateAccumulator(sig);
  acc->Resize(1);
  auto groups = Groups({0});
  acc->Add(groups.data(), MakeDoubleBlock({5.0}), 1);
  EXPECT_TRUE(acc->BuildFinal(1)->IsNull(0));
}

TEST(ExprToStringTest, RendersReadably) {
  auto e = Call("plus", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(3))});
  EXPECT_EQ(e->ToString(), "(#0 + 3)");
  auto f = Call("upper", {Col(1, TypeKind::kVarchar)});
  EXPECT_EQ(f->ToString(), "upper(#1)");
}

TEST(ExprUtilTest, ConstantDetectionAndColumnCollection) {
  auto c = Call("plus", {Lit(Value::Bigint(1)), Lit(Value::Bigint(2))});
  EXPECT_TRUE(IsConstantExpr(*c));
  auto e = Call("plus", {Col(2, TypeKind::kBigint), Col(0, TypeKind::kBigint)});
  EXPECT_FALSE(IsConstantExpr(*e));
  std::vector<int> cols;
  CollectReferencedColumns(*e, &cols);
  EXPECT_EQ(cols, (std::vector<int>{0, 2}));
}

TEST(ExprUtilTest, RemapColumns) {
  auto e = Call("plus", {Col(2, TypeKind::kBigint), Col(0, TypeKind::kBigint)});
  auto remapped = RemapColumns(e, {5, -1, 0});
  std::vector<int> cols;
  CollectReferencedColumns(*remapped, &cols);
  EXPECT_EQ(cols, (std::vector<int>{0, 5}));
}

}  // namespace
}  // namespace presto
