#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace perfbench {

using Row = std::vector<presto::Value>;

/// A statement's answer, computed by the benchmark from the data it
/// generated, outside the timed region.
struct Expected {
  std::vector<Row> rows;
  /// True when the statement's ORDER BY fixes the row order.
  bool ordered = false;
};

/// Compares a statement's rows with the expected answer. BIGINT and
/// VARCHAR cells must match exactly; DOUBLE cells within a relative 1e-9
/// (summation order differs between engines). Unordered answers are
/// compared as multisets. Returns an empty string on a match, otherwise a
/// one-line description of the first difference.
std::string CheckRows(const std::vector<Row>& actual, const Expected& expected);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
