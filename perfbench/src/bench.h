#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;  // holds presto_worker
  std::string out_dir;  // traced runs write their span file here
};

/// One statement a client sends, with the answer it must produce.
struct Statement {
  std::string sql;
  Expected expected;
  bool is_write = false;
  /// Table rows the statement must read (known from the generated data);
  /// the numerator of rows_per_s.
  int64_t rows_read = 0;
};

/// A per-layer number measured outside the statement loop (a probe).
struct LayerValue {
  double value = 0;
  std::string unit;
  std::string note;  // where the value comes from, when not the workload
};

struct MetricSink;

/// Everything one run of one workload measures. Client threads call
/// Execute() concurrently; everything else runs on the main thread.
class Bench {
 public:
  explicit Bench(Options options);

  const Options& options() const { return options_; }

  /// Sends one statement the way a client does — Execute(), then Next()
  /// until the end of the stream, then Wait() — and checks its rows
  /// against the expected answer. While measuring, the latency and row
  /// counts are recorded; in a traced run also the spans and the
  /// engine-reported layer numbers (QueryInfo). A failed or wrong
  /// statement prints its SQL and the seed, and counts as failed.
  bool Execute(presto::PrestoEngine* engine, const Statement& statement);

  /// Set-up time of one of the run's repeated set-ups.
  void RecordSetup(double seconds) { setup_seconds_.push_back(seconds); }

  /// Starts/stops the measured interval; counters published by `engine`
  /// are read at both ends and their difference is the run's.
  void StartMeasuring(presto::PrestoEngine* engine);
  void StopMeasuring(presto::PrestoEngine* engine);
  /// Excludes main-thread bookkeeping (e.g. rebuilding a table) from the
  /// measured wall time.
  void PauseClock();
  void ResumeClock();
  bool TimeUp() const;

  /// Peak resident memory of processes other than this one (worker
  /// daemons), added to this process's VmHWM.
  void AddExternalPeakRssMb(double mb) { external_rss_mb_ += mb; }

  /// Records a probe's per-layer number (traced runs only).
  void SetLayer(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
  /// True when the workload's statements exercised operator `label`.
  bool SawOperator(const std::string& label) const;

  /// Folds one probe query's operator stats into the exec.* numbers.
  void AddProbeOperators(const presto::QueryStats& stats);

  /// Prints the human-readable summary and the final JSON line; writes the
  /// span file of a traced run. Returns the process exit code.
  int Finish();

 private:
  struct OperatorTotals {
    int64_t cpu_nanos = 0;
    int64_t rows = 0;
  };

  /// The per-layer metrics of a traced run.
  void EmitLayers(MetricSink* sink);
  void RecordQueryInfo(presto::PrestoEngine* engine,
                       const std::string& query_id, int64_t statement_span,
                       int64_t execute_span, int64_t start);
  void Counters(presto::PrestoEngine* engine,
                std::map<std::string, double>* out);

  const Options options_;
  SpanRecorder spans_;

  std::mutex mu_;  // guards everything below that client threads touch
  bool measuring_ = false;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<double> read_ms_;
  std::vector<double> write_ms_;
  int64_t completed_ = 0;
  int64_t rows_read_ = 0;
  // Traced runs: engine-reported and client-observed per-statement layers.
  int64_t traced_statements_ = 0;
  std::map<std::string, double> layer_sums_;  // summed per statement
  std::map<std::string, OperatorTotals> operators_;
  std::map<std::string, OperatorTotals> probe_operators_;
  int64_t shuffled_rows_ = 0;
  double peak_user_bytes_ = 0;
  int64_t spilled_bytes_ = 0;

  std::vector<double> setup_seconds_;
  std::map<std::string, double> counters_at_start_;
  std::map<std::string, double> counter_deltas_;
  presto::Stopwatch wall_;
  int64_t paused_nanos_ = 0;
  int64_t pause_started_ = -1;
  double wall_seconds_ = 0;
  // Share of the machine's CPU time the hypervisor took from this VM while
  // measuring: the usual cause of a run that reads slow on every layer.
  std::pair<int64_t, int64_t> steal_at_start_;
  double steal_share_ = 0;
  double external_rss_mb_ = 0;
  std::map<std::string, LayerValue> layers_;
};

/// VmHWM of `pid` (0 = this process) in MB, from /proc/<pid>/status.
double PeakRssMb(int pid = 0);

/// Cumulative (steal, total) CPU jiffies of the machine, from /proc/stat.
std::pair<int64_t, int64_t> CpuStealJiffies();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
