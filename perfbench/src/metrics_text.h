#ifndef PERFBENCH_METRICS_TEXT_H_
#define PERFBENCH_METRICS_TEXT_H_

#include <string>

namespace perfbench {

/// Sum of every sample named `name` (any label set) in a Prometheus text
/// exposition, as rendered by MetricsRegistry::RenderText(); 0 if absent.
double SumSamples(const std::string& exposition, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_TEXT_H_
