#ifndef PRESTOCPP_TYPES_VALUE_H_
#define PRESTOCPP_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/check.h"
#include "common/hash.h"
#include "types/type.h"

namespace presto {

/// A boxed SQL scalar: a (type, nullable payload) pair. Used for literals,
/// the reference executor, statistics min/max, and test assertions. The
/// vectorized engine never boxes per row — it operates on Blocks.
class Value {
 public:
  /// NULL of UNKNOWN type.
  Value() : type_(TypeKind::kUnknown), data_(std::monostate{}) {}

  static Value Null(TypeKind type) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Boolean(bool b) { return Value(TypeKind::kBoolean, b); }
  static Value Bigint(int64_t i) { return Value(TypeKind::kBigint, i); }
  static Value Double(double d) { return Value(TypeKind::kDouble, d); }
  static Value Varchar(std::string s) {
    return Value(TypeKind::kVarchar, std::move(s));
  }
  static Value Date(int64_t days) { return Value(TypeKind::kDate, days); }

  TypeKind type() const { return type_; }
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsBigint() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    // A BIGINT payload coerces transparently so DOUBLE contexts accept it.
    if (std::holds_alternative<int64_t>(data_)) {
      return static_cast<double>(std::get<int64_t>(data_));
    }
    return std::get<double>(data_);
  }
  const std::string& AsVarchar() const { return std::get<std::string>(data_); }
  int64_t AsDate() const { return std::get<int64_t>(data_); }

  /// SQL equality: NULL never equals anything (returns false for any NULL).
  bool SqlEquals(const Value& other) const;

  /// Total-order comparison for sorting: NULL sorts last, DOUBLE NaN above
  /// +Infinity; returns <0/0/>0.
  int Compare(const Value& other) const;

  /// Hash consistent with SqlEquals for non-null values.
  uint64_t Hash() const;

  /// Display form ("NULL", "42", "'abc'", "1995-01-27", "true").
  std::string ToString() const;

  /// Structural equality including null==null (for tests).
  bool operator==(const Value& other) const {
    return type_ == other.type_ && data_ == other.data_;
  }

 private:
  template <typename T>
  Value(TypeKind t, T v) : type_(t), data_(std::move(v)) {}

  TypeKind type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Converts days-since-epoch to "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Parses "YYYY-MM-DD" into days-since-epoch; returns false on bad input.
bool ParseDate(const std::string& text, int64_t* days_out);

}  // namespace presto

#endif  // PRESTOCPP_TYPES_VALUE_H_
