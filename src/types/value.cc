#include "types/value.h"

#include <cmath>
#include <cstdio>

namespace presto {

bool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  // Numeric cross-type comparison (BIGINT vs DOUBLE).
  if (type_ != other.type_) {
    if ((type_ == TypeKind::kBigint && other.type_ == TypeKind::kDouble) ||
        (type_ == TypeKind::kDouble && other.type_ == TypeKind::kBigint)) {
      return AsDouble() == other.AsDouble();
    }
    return false;
  }
  return data_ == other.data_;
}

int Value::Compare(const Value& other) const {
  // NULLs order last (as in Presto's default NULLS LAST for ASC).
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return 1;
  if (other.is_null()) return -1;
  if (type_ != other.type_ || type_ == TypeKind::kDouble ||
      other.type_ == TypeKind::kDouble) {
    if ((type_ == TypeKind::kBigint || type_ == TypeKind::kDouble) &&
        (other.type_ == TypeKind::kBigint ||
         other.type_ == TypeKind::kDouble)) {
      // NaN sorts above +Infinity and equal to itself (Presto's order), so
      // sorting DOUBLEs is a strict weak ordering; -0.0 equals 0.0.
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      if (std::isnan(a) != std::isnan(b)) return std::isnan(a) ? 1 : -1;
      return 0;
    }
  }
  PRESTO_CHECK(type_ == other.type_);
  switch (type_) {
    case TypeKind::kBoolean: {
      int a = AsBoolean() ? 1 : 0;
      int b = other.AsBoolean() ? 1 : 0;
      return a - b;
    }
    case TypeKind::kBigint:
    case TypeKind::kDate: {
      int64_t a = std::get<int64_t>(data_);
      int64_t b = std::get<int64_t>(other.data_);
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    case TypeKind::kVarchar: {
      int c = AsVarchar().compare(other.AsVarchar());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

uint64_t Value::Hash() const {
  if (is_null()) return 0;
  switch (type_) {
    case TypeKind::kBoolean:
      return HashInt64(AsBoolean() ? 1 : 0);
    case TypeKind::kBigint:
    case TypeKind::kDate:
      return HashInt64(static_cast<uint64_t>(std::get<int64_t>(data_)));
    case TypeKind::kDouble:
      return HashDouble(AsDouble());
    case TypeKind::kVarchar:
      return HashString(AsVarchar());
    default:
      return 0;
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case TypeKind::kBoolean:
      return AsBoolean() ? "true" : "false";
    case TypeKind::kBigint:
      return std::to_string(std::get<int64_t>(data_));
    case TypeKind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case TypeKind::kVarchar:
      return "'" + AsVarchar() + "'";
    case TypeKind::kDate:
      return FormatDate(std::get<int64_t>(data_));
    default:
      return "NULL";
  }
}

namespace {

// Civil-date conversion via Howard Hinnant's algorithms.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, int64_t* m, int64_t* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yy + (*m <= 2);
}

}  // namespace

std::string FormatDate(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", static_cast<int>(y),
                static_cast<int>(m), static_cast<int>(d));
  return buf;
}

bool ParseDate(const std::string& text, int64_t* days_out) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return false;
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *days_out = DaysFromCivil(y, m, d);
  return true;
}

}  // namespace presto
