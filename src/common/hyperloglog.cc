#include "common/hyperloglog.h"

#include <cmath>

#include "common/check.h"

namespace presto {

void HyperLogLog::Merge(const HyperLogLog& other) {
  MergeRegisters(other.registers());
}

void HyperLogLog::MergeRegisters(std::string_view regs) {
  if (regs.empty()) return;
  PRESTO_CHECK(regs.size() == static_cast<size_t>(kRegisters));
  if (regs_.empty()) regs_.resize(kRegisters, 0);
  for (size_t r = 0; r < regs_.size(); ++r) {
    auto v = static_cast<uint8_t>(regs[r]);
    if (v > regs_[r]) regs_[r] = v;
  }
}

int64_t HyperLogLog::Estimate() const {
  if (regs_.empty()) return 0;
  double sum = 0;
  int zeros = 0;
  for (uint8_t r : regs_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  const double m = kRegisters;
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double est = alpha * m * m / sum;
  if (est <= 2.5 * m && zeros > 0) {
    // Linear counting for the small range.
    est = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<int64_t>(est + 0.5);
}

}  // namespace presto
