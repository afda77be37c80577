#include "stats_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  // The percentile sits at rank ceil(n * p / 100); everything above it is
  // beyond. Round before ceil so 90% of 100 is rank 90, not 91.
  double at = std::ceil(std::round(static_cast<double>(n) * p * 1e6 / 100.0) /
                        1e6);
  return std::max<int64_t>(0, n - static_cast<int64_t>(at));
}

std::optional<double> HighestSupportedPercentile(
    int64_t n, const std::vector<double>& candidates, int64_t min_beyond) {
  std::optional<double> best;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

std::string PercentileLabel(double p) {
  char buf[32];
  snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
