#ifndef PRESTOCPP_COMMON_HYPERLOGLOG_H_
#define PRESTOCPP_COMMON_HYPERLOGLOG_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

namespace presto {

/// HyperLogLog distinct-value sketch with 2^11 one-byte registers (standard
/// error ~2.3%), mirroring Presto's approx_distinct default accuracy class.
/// It is the one NDV estimator in the engine: approx_distinct keeps one per
/// group, and ColumnStatsBuilder keeps one per column.
///
/// Registers are allocated on the first AddHash/Merge; until then the sketch
/// is empty, serializes to an empty register string and estimates 0. Two
/// sketches merge by taking the element-wise maximum of their registers, so
/// merging is commutative, associative and idempotent.
class HyperLogLog {
 public:
  static constexpr int kBits = 11;
  static constexpr int kRegisters = 1 << kBits;

  /// Observes one 64-bit hash. Callers pass well-mixed hashes (HashInt64,
  /// HashString, Block::HashAt).
  void AddHash(uint64_t hash) {
    if (regs_.empty()) regs_.resize(kRegisters, 0);
    auto bucket = static_cast<size_t>(hash >> (64 - kBits));
    uint64_t rest = hash << kBits;
    // Rank = position of the first 1-bit in the remaining 53 bits; an
    // all-zero remainder ranks one past them.
    auto rank = static_cast<uint8_t>(
        std::min(std::countl_zero(rest), 64 - kBits) + 1);
    if (rank > regs_[bucket]) regs_[bucket] = rank;
  }

  void Merge(const HyperLogLog& other);

  /// Merges a register string produced by registers(); `regs` must be
  /// empty (a no-op) or exactly kRegisters bytes.
  void MergeRegisters(std::string_view regs);

  /// The raw registers: empty, or kRegisters bytes. This is the
  /// approx_distinct intermediate wire format.
  std::string_view registers() const {
    return {reinterpret_cast<const char*>(regs_.data()), regs_.size()};
  }

  /// Estimated number of distinct hashes observed (linear counting in the
  /// small range).
  int64_t Estimate() const;

  int64_t MemoryBytes() const { return static_cast<int64_t>(regs_.size()); }

 private:
  std::vector<uint8_t> regs_;
};

}  // namespace presto

#endif  // PRESTOCPP_COMMON_HYPERLOGLOG_H_
