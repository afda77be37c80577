#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval recorded by the benchmark around a call it makes
/// into the engine (or an engine-reported phase attached beneath one).
/// Times are steady-clock nanoseconds since the recorder was created.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  std::string name;
  std::string query_id;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval covered by the union of its children's intervals
/// (children may overlap each other and may stick out of the parent; only
/// the overlap with the parent counts).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per span name: how many spans, their total duration and total self time.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// In-memory span store shared by the client threads of one traced run;
/// nothing is written until the run ends.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Nanoseconds since this recorder was created.
  int64_t Now() const;

  /// Stores a finished span; returns its id.
  int64_t Add(int64_t parent, std::string name, std::string query_id,
              int64_t start_ns, int64_t end_ns);

  std::vector<Span> Snapshot() const;

 private:
  int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// JSON document of every span with its self time, plus per-name totals.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
