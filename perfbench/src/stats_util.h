#ifndef PERFBENCH_STATS_UTIL_H_
#define PERFBENCH_STATS_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The p-th percentile (0..100) of `samples`, interpolating linearly
/// between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Samples that lie strictly beyond the p-th percentile of `n` samples.
int64_t SamplesBeyond(int64_t n, double p);

/// The highest of `candidates` (ascending percentiles) that still has at
/// least `min_beyond` samples beyond it in a sample of `n`; nullopt when
/// not even the lowest candidate is supported.
std::optional<double> HighestSupportedPercentile(
    int64_t n, const std::vector<double>& candidates = {50, 90, 99, 99.9},
    int64_t min_beyond = 10);

/// "p90" / "p99.9" rendering of a percentile.
std::string PercentileLabel(double p);

double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_UTIL_H_
