#include "expr/evaluator.h"

#include <cstdlib>

#include "expr/function_registry.h"
#include "vector/block_builder.h"
#include "vector/decoded_block.h"
#include "vector/encoded_block.h"

namespace presto {

Value CastValue(TypeKind target, const Value& in) {
  if (in.is_null()) return Value::Null(target);
  if (in.type() == target) return in;
  switch (target) {
    case TypeKind::kBigint:
      switch (in.type()) {
        case TypeKind::kDouble:
          return Value::Bigint(static_cast<int64_t>(in.AsDouble()));
        case TypeKind::kBoolean:
          return Value::Bigint(in.AsBoolean() ? 1 : 0);
        case TypeKind::kDate:
          return Value::Bigint(in.AsDate());
        case TypeKind::kVarchar: {
          char* end = nullptr;
          const std::string& s = in.AsVarchar();
          long long v = std::strtoll(s.c_str(), &end, 10);
          if (end == s.c_str() || *end != '\0') {
            return Value::Null(TypeKind::kBigint);
          }
          return Value::Bigint(v);
        }
        default:
          return Value::Null(target);
      }
    case TypeKind::kDouble:
      switch (in.type()) {
        case TypeKind::kBigint:
          return Value::Double(static_cast<double>(in.AsBigint()));
        case TypeKind::kBoolean:
          return Value::Double(in.AsBoolean() ? 1.0 : 0.0);
        case TypeKind::kVarchar: {
          char* end = nullptr;
          const std::string& s = in.AsVarchar();
          double v = std::strtod(s.c_str(), &end);
          if (end == s.c_str() || *end != '\0') {
            return Value::Null(TypeKind::kDouble);
          }
          return Value::Double(v);
        }
        default:
          return Value::Null(target);
      }
    case TypeKind::kVarchar:
      switch (in.type()) {
        case TypeKind::kBigint:
          return Value::Varchar(std::to_string(in.AsBigint()));
        case TypeKind::kDouble:
          return Value::Varchar(Value::Double(in.AsDouble()).ToString());
        case TypeKind::kBoolean:
          return Value::Varchar(in.AsBoolean() ? "true" : "false");
        case TypeKind::kDate:
          return Value::Varchar(FormatDate(in.AsDate()));
        default:
          return Value::Null(target);
      }
    case TypeKind::kBoolean:
      switch (in.type()) {
        case TypeKind::kBigint:
          return Value::Boolean(in.AsBigint() != 0);
        case TypeKind::kVarchar: {
          const std::string& s = in.AsVarchar();
          if (s == "true" || s == "TRUE" || s == "t" || s == "1") {
            return Value::Boolean(true);
          }
          if (s == "false" || s == "FALSE" || s == "f" || s == "0") {
            return Value::Boolean(false);
          }
          return Value::Null(TypeKind::kBoolean);
        }
        default:
          return Value::Null(target);
      }
    case TypeKind::kDate:
      switch (in.type()) {
        case TypeKind::kBigint:
          return Value::Date(in.AsBigint());
        case TypeKind::kVarchar: {
          int64_t days = 0;
          if (!ParseDate(in.AsVarchar(), &days)) {
            return Value::Null(TypeKind::kDate);
          }
          return Value::Date(days);
        }
        default:
          return Value::Null(target);
      }
    default:
      return Value::Null(target);
  }
}

Result<Value> EvalExprRow(const Expr& expr, const Page& page, int64_t row) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return page.block(static_cast<size_t>(expr.column()))->GetValue(row);
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kCall: {
      const ScalarFunction* fn = expr.function();
      std::vector<Value> args;
      args.reserve(expr.children().size());
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(Value v, EvalExprRow(*c, page, row));
        if (v.is_null()) return Value::Null(fn->return_type);
        args.push_back(std::move(v));
      }
      return fn->eval_row(args);
    }
    case ExprKind::kCast: {
      PRESTO_ASSIGN_OR_RETURN(Value v,
                              EvalExprRow(*expr.children()[0], page, row));
      return CastValue(expr.type(), v);
    }
    case ExprKind::kAnd: {
      bool any_null = false;
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(Value v, EvalExprRow(*c, page, row));
        if (v.is_null()) {
          any_null = true;
        } else if (!v.AsBoolean()) {
          return Value::Boolean(false);
        }
      }
      if (any_null) return Value::Null(TypeKind::kBoolean);
      return Value::Boolean(true);
    }
    case ExprKind::kOr: {
      bool any_null = false;
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(Value v, EvalExprRow(*c, page, row));
        if (v.is_null()) {
          any_null = true;
        } else if (v.AsBoolean()) {
          return Value::Boolean(true);
        }
      }
      if (any_null) return Value::Null(TypeKind::kBoolean);
      return Value::Boolean(false);
    }
    case ExprKind::kCase: {
      size_t pair_count =
          (expr.children().size() - (expr.has_else() ? 1 : 0)) / 2;
      for (size_t p = 0; p < pair_count; ++p) {
        PRESTO_ASSIGN_OR_RETURN(
            Value cond, EvalExprRow(*expr.children()[2 * p], page, row));
        if (!cond.is_null() && cond.AsBoolean()) {
          PRESTO_ASSIGN_OR_RETURN(
              Value v, EvalExprRow(*expr.children()[2 * p + 1], page, row));
          return CastValue(expr.type(), v);
        }
      }
      if (expr.has_else()) {
        PRESTO_ASSIGN_OR_RETURN(
            Value v, EvalExprRow(*expr.children().back(), page, row));
        return CastValue(expr.type(), v);
      }
      return Value::Null(expr.type());
    }
    case ExprKind::kIn: {
      PRESTO_ASSIGN_OR_RETURN(Value needle,
                              EvalExprRow(*expr.children()[0], page, row));
      if (needle.is_null()) return Value::Null(TypeKind::kBoolean);
      bool any_null = false;
      for (size_t i = 1; i < expr.children().size(); ++i) {
        PRESTO_ASSIGN_OR_RETURN(Value v,
                                EvalExprRow(*expr.children()[i], page, row));
        if (v.is_null()) {
          any_null = true;
        } else if (needle.SqlEquals(v)) {
          return Value::Boolean(true);
        }
      }
      if (any_null) return Value::Null(TypeKind::kBoolean);
      return Value::Boolean(false);
    }
    case ExprKind::kIsNull: {
      PRESTO_ASSIGN_OR_RETURN(Value v,
                              EvalExprRow(*expr.children()[0], page, row));
      return Value::Boolean(v.is_null());
    }
    case ExprKind::kCoalesce: {
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(Value v, EvalExprRow(*c, page, row));
        if (!v.is_null()) return CastValue(expr.type(), v);
      }
      return Value::Null(expr.type());
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> EvalConstantExpr(const Expr& expr) {
  PRESTO_CHECK(IsConstantExpr(expr));
  Page empty({}, 1);
  return EvalExprRow(expr, empty, 0);
}

namespace {

// Vectorized CAST with fast paths for numeric conversions.
Result<BlockPtr> CastVector(TypeKind target, const BlockPtr& input,
                            int64_t rows) {
  if (input->type() == target) return input;
  DecodedBlock d;
  d.Decode(input);
  // Fast numeric paths.
  if (target == TypeKind::kDouble && (input->type() == TypeKind::kBigint ||
                                      input->type() == TypeKind::kDate)) {
    std::vector<double> values(static_cast<size_t>(rows));
    std::vector<uint8_t> nulls;
    bool any = d.MayHaveNulls();
    if (any) nulls.resize(static_cast<size_t>(rows), 0);
    for (int64_t i = 0; i < rows; ++i) {
      if (any && d.IsNull(i)) {
        nulls[static_cast<size_t>(i)] = 1;
      } else {
        values[static_cast<size_t>(i)] =
            static_cast<double>(d.ValueAt<int64_t>(i));
      }
    }
    return BlockPtr(std::make_shared<DoubleBlock>(
        TypeKind::kDouble, std::move(values), std::move(nulls)));
  }
  if (target == TypeKind::kBigint && input->type() == TypeKind::kDouble) {
    std::vector<int64_t> values(static_cast<size_t>(rows));
    std::vector<uint8_t> nulls;
    bool any = d.MayHaveNulls();
    if (any) nulls.resize(static_cast<size_t>(rows), 0);
    for (int64_t i = 0; i < rows; ++i) {
      if (any && d.IsNull(i)) {
        nulls[static_cast<size_t>(i)] = 1;
      } else {
        values[static_cast<size_t>(i)] =
            static_cast<int64_t>(d.ValueAt<double>(i));
      }
    }
    return BlockPtr(std::make_shared<LongBlock>(
        TypeKind::kBigint, std::move(values), std::move(nulls)));
  }
  // Generic boxed fallback.
  BlockBuilder builder(target);
  for (int64_t i = 0; i < rows; ++i) {
    builder.AppendValue(CastValue(target, d.GetValue(i)));
  }
  return builder.Build();
}

// Merges boolean child blocks under three-valued AND/OR.
BlockPtr MergeBoolean(bool is_and, const std::vector<BlockPtr>& children,
                      int64_t rows) {
  // result: 1 = true, 0 = false, 2 = null
  std::vector<uint8_t> state(static_cast<size_t>(rows), is_and ? 1 : 0);
  for (const auto& child : children) {
    DecodedBlock d;
    d.Decode(child);
    for (int64_t i = 0; i < rows; ++i) {
      uint8_t& s = state[static_cast<size_t>(i)];
      if (is_and) {
        if (s == 0) continue;  // already false
        if (d.IsNull(i)) {
          s = 2;
        } else if (d.ValueAt<uint8_t>(i) == 0) {
          s = 0;
        }
      } else {
        if (s == 1) continue;  // already true
        if (d.IsNull(i)) {
          s = 2;
        } else if (d.ValueAt<uint8_t>(i) != 0) {
          s = 1;
        }
      }
    }
  }
  std::vector<uint8_t> values(static_cast<size_t>(rows));
  std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
  bool any_null = false;
  for (int64_t i = 0; i < rows; ++i) {
    uint8_t s = state[static_cast<size_t>(i)];
    if (s == 2) {
      nulls[static_cast<size_t>(i)] = 1;
      any_null = true;
    } else {
      values[static_cast<size_t>(i)] = s;
    }
  }
  if (!any_null) nulls.clear();
  return std::make_shared<ByteBlock>(TypeKind::kBoolean, std::move(values),
                                     std::move(nulls));
}

}  // namespace

Result<BlockPtr> ExprEvaluator::Eval(const Page& input) const {
  if (mode_ == EvalMode::kCompiled) return EvalVector(*expr_, input);
  // Interpreted: boxed row loop.
  BlockBuilder builder(expr_->type() == TypeKind::kUnknown
                           ? TypeKind::kBigint
                           : expr_->type());
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    PRESTO_ASSIGN_OR_RETURN(Value v, EvalExprRow(*expr_, input, i));
    builder.AppendValue(v);
  }
  return builder.Build();
}

Result<BlockPtr> ExprEvaluator::EvalVector(const Expr& expr,
                                           const Page& input) const {
  int64_t rows = input.num_rows();
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return input.block(static_cast<size_t>(expr.column()));
    case ExprKind::kLiteral:
      return MakeConstantBlock(expr.literal(), rows);
    case ExprKind::kCall: {
      std::vector<BlockPtr> args;
      args.reserve(expr.children().size());
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(BlockPtr b, EvalVector(*c, input));
        args.push_back(std::move(b));
      }
      return expr.function()->eval_vector(args, rows);
    }
    case ExprKind::kCast: {
      PRESTO_ASSIGN_OR_RETURN(BlockPtr in,
                              EvalVector(*expr.children()[0], input));
      return CastVector(expr.type(), in, rows);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<BlockPtr> children;
      children.reserve(expr.children().size());
      for (const auto& c : expr.children()) {
        PRESTO_ASSIGN_OR_RETURN(BlockPtr b, EvalVector(*c, input));
        children.push_back(std::move(b));
      }
      return MergeBoolean(expr.kind() == ExprKind::kAnd, children, rows);
    }
    case ExprKind::kIsNull: {
      PRESTO_ASSIGN_OR_RETURN(BlockPtr in,
                              EvalVector(*expr.children()[0], input));
      DecodedBlock d;
      d.Decode(in);
      std::vector<uint8_t> values(static_cast<size_t>(rows));
      for (int64_t i = 0; i < rows; ++i) {
        values[static_cast<size_t>(i)] = d.IsNull(i) ? 1 : 0;
      }
      return BlockPtr(std::make_shared<ByteBlock>(
          TypeKind::kBoolean, std::move(values), std::vector<uint8_t>{}));
    }
    case ExprKind::kCoalesce: {
      std::vector<BlockPtr> children;
      std::vector<DecodedBlock> decoded(expr.children().size());
      for (size_t i = 0; i < expr.children().size(); ++i) {
        PRESTO_ASSIGN_OR_RETURN(BlockPtr b,
                                EvalVector(*expr.children()[i], input));
        children.push_back(b);
        decoded[i].Decode(children[i]);
      }
      BlockBuilder builder(expr.type());
      for (int64_t i = 0; i < rows; ++i) {
        bool appended = false;
        for (size_t c = 0; c < decoded.size(); ++c) {
          if (!decoded[c].IsNull(i)) {
            builder.AppendValue(
                CastValue(expr.type(), decoded[c].GetValue(i)));
            appended = true;
            break;
          }
        }
        if (!appended) builder.AppendNull();
      }
      return builder.Build();
    }
    case ExprKind::kCase: {
      size_t pair_count =
          (expr.children().size() - (expr.has_else() ? 1 : 0)) / 2;
      std::vector<DecodedBlock> conds(pair_count);
      std::vector<DecodedBlock> vals(pair_count);
      std::vector<BlockPtr> holders;
      for (size_t p = 0; p < pair_count; ++p) {
        PRESTO_ASSIGN_OR_RETURN(BlockPtr c,
                                EvalVector(*expr.children()[2 * p], input));
        PRESTO_ASSIGN_OR_RETURN(
            BlockPtr v, EvalVector(*expr.children()[2 * p + 1], input));
        holders.push_back(c);
        holders.push_back(v);
        conds[p].Decode(holders[holders.size() - 2]);
        vals[p].Decode(holders[holders.size() - 1]);
      }
      DecodedBlock else_block;
      bool has_else = expr.has_else();
      BlockPtr else_holder;
      if (has_else) {
        PRESTO_ASSIGN_OR_RETURN(else_holder,
                                EvalVector(*expr.children().back(), input));
        else_block.Decode(else_holder);
      }
      BlockBuilder builder(expr.type());
      for (int64_t i = 0; i < rows; ++i) {
        bool done = false;
        for (size_t p = 0; p < pair_count; ++p) {
          if (!conds[p].IsNull(i) && conds[p].ValueAt<uint8_t>(i) != 0) {
            if (vals[p].IsNull(i)) {
              builder.AppendNull();
            } else {
              builder.AppendValue(
                  CastValue(expr.type(), vals[p].GetValue(i)));
            }
            done = true;
            break;
          }
        }
        if (!done) {
          if (has_else && !else_block.IsNull(i)) {
            builder.AppendValue(
                CastValue(expr.type(), else_block.GetValue(i)));
          } else {
            builder.AppendNull();
          }
        }
      }
      return builder.Build();
    }
    case ExprKind::kIn: {
      PRESTO_ASSIGN_OR_RETURN(BlockPtr needle,
                              EvalVector(*expr.children()[0], input));
      DecodedBlock nd;
      nd.Decode(needle);
      std::vector<DecodedBlock> list(expr.children().size() - 1);
      std::vector<BlockPtr> holders;
      for (size_t i = 1; i < expr.children().size(); ++i) {
        PRESTO_ASSIGN_OR_RETURN(BlockPtr b,
                                EvalVector(*expr.children()[i], input));
        holders.push_back(b);
        list[i - 1].Decode(holders.back());
      }
      std::vector<uint8_t> values(static_cast<size_t>(rows), 0);
      std::vector<uint8_t> nulls(static_cast<size_t>(rows), 0);
      bool any_null = false;
      for (int64_t i = 0; i < rows; ++i) {
        if (nd.IsNull(i)) {
          nulls[static_cast<size_t>(i)] = 1;
          any_null = true;
          continue;
        }
        Value v = nd.GetValue(i);
        bool matched = false;
        bool saw_null = false;
        for (auto& item : list) {
          if (item.IsNull(i)) {
            saw_null = true;
            continue;
          }
          if (v.SqlEquals(item.GetValue(i))) {
            matched = true;
            break;
          }
        }
        if (matched) {
          values[static_cast<size_t>(i)] = 1;
        } else if (saw_null) {
          nulls[static_cast<size_t>(i)] = 1;
          any_null = true;
        }
      }
      if (!any_null) nulls.clear();
      return BlockPtr(std::make_shared<ByteBlock>(
          TypeKind::kBoolean, std::move(values), std::move(nulls)));
    }
  }
  return Status::Internal("unhandled expression kind in vector eval");
}

}  // namespace presto
