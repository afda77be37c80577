#include "checker.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

using presto::TypeKind;
using presto::Value;

bool IsDouble(const Value& v) {
  return !v.is_null() && v.type() == TypeKind::kDouble;
}

bool CellsMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (IsDouble(a) || IsDouble(b)) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.Compare(b) == 0;
}

bool RowsMatch(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!CellsMatch(a[i], b[i])) return false;
  }
  return true;
}

// Orders rows by their non-DOUBLE cells first, so rows whose doubles differ
// only by rounding still sort next to each other.
bool RowLess(const Row& a, const Row& b) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      bool dbl = IsDouble(a[i]) || IsDouble(b[i]);
      if (dbl != (pass == 1)) continue;
      if (a[i].is_null() != b[i].is_null()) return a[i].is_null();
      if (a[i].is_null()) continue;
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
  }
  return a.size() < b.size();
}

std::string Render(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

std::string CheckRows(const std::vector<Row>& actual,
                      const Expected& expected) {
  if (actual.size() != expected.rows.size()) {
    return "expected " + std::to_string(expected.rows.size()) +
           " rows, got " + std::to_string(actual.size());
  }
  std::vector<Row> got = actual;
  std::vector<Row> want = expected.rows;
  if (!expected.ordered) {
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!RowsMatch(got[i], want[i])) {
      return "row " + std::to_string(i) + ": expected " + Render(want[i]) +
             ", got " + Render(got[i]);
    }
  }
  return "";
}

}  // namespace perfbench
