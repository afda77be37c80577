#include "bench.h"

#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "metrics_text.h"
#include "stats_util.h"

namespace perfbench {

namespace {

using presto::Json;
using presto::PrestoEngine;

constexpr double kNanosPerMs = 1e6;

// Engine counters read at both ends of the measured interval. Cache
// counters come from the caches themselves; these from the engine's
// MetricsRegistry exposition.
const char* const kRegistryCounters[] = {
    "presto_task_retries_total",
    "presto_exchange_http_requests",
    "presto_exchange_http_retries",
    "presto_exchange_serialized_bytes",
    "presto_exchange_transferred_bytes_total",
};

// Operator labels the exec.* layer metrics report (see exec/task.cc).
const char* const kOperatorLabels[] = {
    "scan",       "filter",     "project", "aggregate", "hash_build",
    "hash_probe", "topn",       "order_by", "writer",
};

// Spans whose mean self time per statement is reported. "statement" is
// left out: its children cover it end to end, so its self time is 0.
const char* const kSpanNames[] = {
    "execute", "planning", "queued", "execution", "fetch", "wait",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Ms(int64_t nanos) { return static_cast<double>(nanos) / kNanosPerMs; }

}  // namespace

// Collects the metrics of the JSON line, echoing each as a readable line,
// and the notes that explain where a per-layer value comes from.
struct MetricSink {
  Json metrics = Json::Object();
  Json notes = Json::Object();

  void Emit(const std::string& name, double value, const std::string& unit) {
    Json m = Json::Object();
    m.Set("value", Json::Real(value)).Set("unit", Json::Str(unit));
    metrics.Set(name, std::move(m));
    printf("%-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void Note(const std::string& name, const std::string& note) {
    notes.Set(name, Json::Str(note));
  }
};

double PeakRssMb(int pid) {
  std::string path = pid == 0 ? "/proc/self/status"
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::pair<int64_t, int64_t> CpuStealJiffies() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0;
  int64_t steal = 0;
  int64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

Bench::Bench(Options options) : options_(std::move(options)) {}

bool Bench::Execute(PrestoEngine* engine, const Statement& statement) {
  bool measuring;
  {
    std::lock_guard<std::mutex> lock(mu_);
    measuring = measuring_;
  }

  std::string error;
  std::string query_id;
  std::vector<presto::Page> pages;
  const int64_t start = spans_.Now();
  auto handle = engine->Execute(statement.sql);
  const int64_t execute_end = spans_.Now();
  int64_t first_page = execute_end;
  if (!handle.ok()) {
    error = handle.status().ToString();
  } else {
    query_id = handle->query_id();
    for (bool first = true;; first = false) {
      auto page = handle->Next();
      if (first) first_page = spans_.Now();
      if (!page.ok()) {
        error = page.status().ToString();
        break;
      }
      if (!page->has_value()) break;
      pages.push_back(std::move(**page));
    }
  }
  const int64_t end = spans_.Now();
  if (handle.ok()) {
    presto::Status final_status = handle->Wait();
    if (error.empty() && !final_status.ok()) error = final_status.ToString();
  }
  const int64_t waited = spans_.Now();

  // Everything below is outside the timed interval.
  if (error.empty()) {
    std::vector<Row> rows;
    for (const auto& page : pages) {
      for (int64_t r = 0; r < page.num_rows(); ++r) {
        rows.push_back(page.GetRow(r));
      }
    }
    std::string diff = CheckRows(rows, statement.expected);
    if (!diff.empty()) error = "wrong answer: " + diff;
  }
  if (!error.empty()) {
    fprintf(stderr, "FAILED (workload=%s seed=%llu) %s\n  sql: %s\n",
            options_.workload.c_str(),
            static_cast<unsigned long long>(options_.seed), error.c_str(),
            statement.sql.c_str());
  }

  if (measuring && options_.trace && error.empty()) {
    int64_t root = spans_.Add(0, "statement", query_id, start, waited);
    int64_t call = spans_.Add(root, "execute", query_id, start, execute_end);
    spans_.Add(root, "fetch", query_id, execute_end, end);
    spans_.Add(root, "wait", query_id, end, waited);
    RecordQueryInfo(engine, query_id, root, call, start);
    std::lock_guard<std::mutex> lock(mu_);
    layer_sums_["engine.execute_call_ms"] += Ms(execute_end - start);
    layer_sums_["engine.first_page_ms"] += Ms(first_page - execute_end);
    layer_sums_["engine.fetch_ms"] += Ms(end - first_page);
    ++traced_statements_;
  }

  std::lock_guard<std::mutex> lock(mu_);
  // A failing warm-up statement fails the run just like a measured one.
  if (measuring || !error.empty()) ++attempted_;
  if (!error.empty()) {
    ++failed_;
    return false;
  }
  if (!measuring) return true;
  ++completed_;
  (statement.is_write ? write_ms_ : read_ms_).push_back(Ms(end - start));
  rows_read_ += statement.rows_read;
  return true;
}

void Bench::RecordQueryInfo(PrestoEngine* engine, const std::string& query_id,
                            int64_t statement_span, int64_t execute_span,
                            int64_t start) {
  auto info = engine->QueryInfoFor(query_id);
  if (!info.ok()) return;
  // QueryInfo reports phase durations, not timestamps: the phases are laid
  // out back to back from the start of the Execute() call, planning and
  // admission inside it, execution after them.
  int64_t planning_end = start + info->planning_nanos;
  int64_t queued_end = planning_end + info->queued_nanos;
  spans_.Add(execute_span, "planning", query_id, start, planning_end);
  spans_.Add(execute_span, "queued", query_id, planning_end, queued_end);
  spans_.Add(statement_span, "execution", query_id, queued_end,
             queued_end + info->execution_nanos);

  const presto::QueryStats& stats = info->stats;
  std::lock_guard<std::mutex> lock(mu_);
  layer_sums_["plan.planning_ms"] += Ms(info->planning_nanos);
  layer_sums_["schedule.queued_ms"] += Ms(info->queued_nanos);
  layer_sums_["schedule.execution_ms"] += Ms(info->execution_nanos);
  layer_sums_["exec.blocked_ms"] += Ms(stats.total_blocked_nanos);
  for (const presto::OperatorStats& op : stats.MergedOperators()) {
    layer_sums_["schedule.driver_queued_ms"] += Ms(op.queued_nanos);
    layer_sums_["exchange.serde_ms"] += Ms(op.serde_nanos);
    OperatorTotals& t = operators_[op.label];
    t.cpu_nanos += op.cpu_nanos();
    t.rows += op.input_rows > 0 ? op.input_rows : op.output_rows;
    if (op.label == "remote_source") shuffled_rows_ += op.output_rows;
  }
  peak_user_bytes_ = std::max(
      peak_user_bytes_, static_cast<double>(stats.peak_user_memory_bytes));
  spilled_bytes_ += stats.total_spilled_bytes;
}

void Bench::Counters(PrestoEngine* engine,
                     std::map<std::string, double>* out) {
  auto& mm = engine->metadata_manager();
  auto put = [out](const char* name, int64_t value) {
    (*out)[name] = static_cast<double>(value);
  };
  put("plan_hits", mm.plan_cache().hits());
  put("plan_misses", mm.plan_cache().misses());
  put("metadata_hits", mm.metadata_cache().hits());
  put("metadata_misses", mm.metadata_cache().misses());
  put("split_hits", mm.split_cache().hits());
  put("split_misses", mm.split_cache().misses());
  std::string text = engine->metrics().RenderText();
  for (const char* name : kRegistryCounters) {
    (*out)[name] = SumSamples(text, name);
  }
}

void Bench::StartMeasuring(PrestoEngine* engine) {
  Counters(engine, &counters_at_start_);
  steal_at_start_ = CpuStealJiffies();
  std::lock_guard<std::mutex> lock(mu_);
  measuring_ = true;
  wall_.Reset();
  paused_nanos_ = 0;
  pause_started_ = -1;
}

void Bench::StopMeasuring(PrestoEngine* engine) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    measuring_ = false;
    wall_seconds_ = (wall_.ElapsedNanos() - paused_nanos_) * 1e-9;
  }
  auto [steal, total] = CpuStealJiffies();
  steal_share_ = Ratio(static_cast<double>(steal - steal_at_start_.first),
                       static_cast<double>(total - steal_at_start_.second));
  std::map<std::string, double> now;
  Counters(engine, &now);
  for (const auto& [name, value] : now) {
    counter_deltas_[name] = value - counters_at_start_[name];
  }
}

void Bench::PauseClock() { pause_started_ = wall_.ElapsedNanos(); }

void Bench::ResumeClock() {
  if (pause_started_ >= 0) {
    paused_nanos_ += wall_.ElapsedNanos() - pause_started_;
  }
  pause_started_ = -1;
}

bool Bench::TimeUp() const {
  return (wall_.ElapsedNanos() - paused_nanos_) * 1e-9 >= options_.seconds;
}

void Bench::SetLayer(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  layers_[name] = LayerValue{value, unit, note};
}

bool Bench::SawOperator(const std::string& label) const {
  auto it = operators_.find(label);
  return it != operators_.end() && it->second.rows > 0;
}

void Bench::AddProbeOperators(const presto::QueryStats& stats) {
  for (const presto::OperatorStats& op : stats.MergedOperators()) {
    OperatorTotals& t = probe_operators_[op.label];
    t.cpu_nanos += op.cpu_nanos();
    t.rows += op.input_rows > 0 ? op.input_rows : op.output_rows;
  }
}

int Bench::Finish() {
  const double wall = wall_seconds_ > 0 ? wall_seconds_ : 1e-9;
  const int64_t reads = static_cast<int64_t>(read_ms_.size());
  const double failed_frac = Ratio(static_cast<double>(failed_),
                                   static_cast<double>(attempted_));
  printf("workload=%s seed=%llu trace=%d seconds=%.3f statements=%lld "
         "(reads=%lld writes=%zu)\n",
         options_.workload.c_str(),
         static_cast<unsigned long long>(options_.seed), options_.trace ? 1 : 0,
         wall, static_cast<long long>(completed_),
         static_cast<long long>(reads), write_ms_.size());
  auto tail = HighestSupportedPercentile(reads);
  printf("latency samples=%lld; highest percentile with >=10 beyond it: %s\n",
         static_cast<long long>(reads),
         tail.has_value() ? PercentileLabel(*tail).c_str() : "none");
  if (SamplesBeyond(reads, 90) < 10) {
    printf("warning: latency_p90_ms has fewer than 10 samples beyond it\n");
  }
  printf("%-36s %16.6g ratio (%lld failed of %lld attempted)\n", "failed_frac",
         failed_frac, static_cast<long long>(failed_),
         static_cast<long long>(attempted_));
  printf("%-36s %16.6g ratio of CPU time taken by the hypervisor\n",
         "cpu_steal_share", steal_share_);

  // Numbers every run reports beside the JSON line's metrics: failure
  // accounting, write latency where the workload writes, and the shape of
  // the read latency distribution.
  Json extra = Json::Object();
  extra.Set("failed_frac", Json::Real(failed_frac));
  extra.Set("read_samples", Json::Int(reads));
  extra.Set("cpu_steal_share", Json::Real(steal_share_));
  if (!write_ms_.empty()) {
    double p50 = Percentile(write_ms_, 50);
    double p90 = Percentile(write_ms_, 90);
    extra.Set("write_p50_ms", Json::Real(p50))
        .Set("write_p90_ms", Json::Real(p90))
        .Set("write_samples",
             Json::Int(static_cast<int64_t>(write_ms_.size())));
    printf("%-36s %16.6g ms\n%-36s %16.6g ms (%zu writes)\n", "write_p50_ms",
           p50, "write_p90_ms", p90, write_ms_.size());
  }
  Json shape = Json::Object();
  for (double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    shape.Set(PercentileLabel(p), Json::Real(Percentile(read_ms_, p)));
  }
  extra.Set("read_percentiles_ms", std::move(shape));

  MetricSink sink;
  if (options_.trace) {
    EmitLayers(&sink);
  } else {
    sink.Emit("setup_s", Percentile(setup_seconds_, 50), "s");
    sink.Emit("latency_p50_ms", Percentile(read_ms_, 50), "ms");
    sink.Emit("latency_p90_ms", Percentile(read_ms_, 90), "ms");
    sink.Emit("qps", static_cast<double>(completed_) / wall, "1/s");
    sink.Emit("rows_per_s", static_cast<double>(rows_read_) / wall, "rows/s");
    sink.Emit("peak_rss_mb", PeakRssMb() + external_rss_mb_, "MB");
  }

  Json line = Json::Object();
  line.Set("correct", Json::Bool(failed_ == 0 && attempted_ > 0))
      .Set("attempted", Json::Int(attempted_))
      .Set("failed", Json::Int(failed_))
      .Set("metrics", std::move(sink.metrics));
  Json setups = Json::Array();
  for (double s : setup_seconds_) setups.Append(Json::Real(s));
  Json report = Json::Object();
  report.Set("workload", Json::Str(options_.workload))
      .Set("seed", Json::Int(static_cast<int64_t>(options_.seed)))
      .Set("trace", Json::Bool(options_.trace))
      .Set("setup_runs_s", std::move(setups))
      .Set("extra", std::move(extra))
      .Set("notes", std::move(sink.notes))
      .Set("result", line);
  std::string name = options_.workload + "-seed" +
                     std::to_string(options_.seed);
  std::ofstream(options_.out_dir + "/report-" + name + "-trace" +
                (options_.trace ? "1" : "0") + ".json")
      << report.Serialize() << "\n";
  printf("%s\n", line.Serialize().c_str());
  fflush(stdout);
  return 0;
}

void Bench::EmitLayers(MetricSink* sink) {
  const double n =
      static_cast<double>(std::max<int64_t>(1, traced_statements_));
  auto mean = [&](const std::string& name, const std::string& unit) {
    sink->Emit(name, layer_sums_[name] / n, unit);
  };
  // A probe's value, recorded by RunLayerProbes after the workload.
  auto probe = [&](const std::string& name, const std::string& unit) {
    auto it = layers_.find(name);
    if (it == layers_.end()) {
      sink->Note(name, "probe did not run");
      sink->Emit(name, 0, unit);
      return;
    }
    if (!it->second.note.empty()) sink->Note(name, it->second.note);
    sink->Emit(name, it->second.value, it->second.unit);
  };
  auto cache = [&](const std::string& prefix, const std::string& layer) {
    double hits = counter_deltas_[prefix + "_hits"];
    double lookups = hits + counter_deltas_[prefix + "_misses"];
    std::string name = "metadata." + layer;
    if (lookups == 0) sink->Note(name + "_hit_ratio", "no lookups in the run");
    sink->Emit(name + "_hit_ratio", Ratio(hits, lookups), "ratio");
    sink->Emit(name + "_lookups", lookups, "count");
  };

  probe("sql.parse_us", "us");
  mean("plan.planning_ms", "ms");
  probe("plan.explain_cold_ms", "ms");
  probe("plan.explain_warm_us", "us");
  cache("plan", "plan_cache");
  cache("metadata", "metadata_cache");
  cache("split", "split_cache");
  probe("connector.get_stats_ms", "ms");
  probe("connector.get_splits_us", "us");
  mean("schedule.queued_ms", "ms");
  mean("schedule.execution_ms", "ms");
  mean("schedule.driver_queued_ms", "ms");
  sink->Emit("schedule.task_retries",
             counter_deltas_["presto_task_retries_total"], "count");
  for (const std::string label : kOperatorLabels) {
    std::string name = "exec." + label + ".ns_per_row";
    const OperatorTotals* t = nullptr;
    if (SawOperator(label)) {
      t = &operators_[label];
    } else if (probe_operators_[label].rows > 0) {
      t = &probe_operators_[label];
      sink->Note(name, "the workload runs no " + label +
                           " operator; value from a probe query after it");
    } else {
      sink->Note(name, "no " + label + " operator ran");
    }
    sink->Emit(name,
               t == nullptr ? 0
                            : Ratio(static_cast<double>(t->cpu_nanos),
                                    static_cast<double>(t->rows)),
               "ns/row");
  }
  mean("exec.blocked_ms", "ms");
  mean("exchange.serde_ms", "ms");
  double wire = counter_deltas_["presto_exchange_serialized_bytes"];
  if (wire == 0) {
    // kProcess: the daemons serialize the shuffle and do not publish it.
    wire = counter_deltas_["presto_exchange_transferred_bytes_total"];
    sink->Note("exchange.wire_bytes_per_row",
               "bytes the coordinator fetched per shuffled row; worker "
               "daemons do not publish their serialized bytes");
  }
  if (shuffled_rows_ == 0) {
    sink->Note("exchange.wire_bytes_per_row", "no rows were shuffled");
  }
  sink->Emit("exchange.wire_bytes_per_row",
             Ratio(wire, static_cast<double>(shuffled_rows_)), "bytes/row");
  probe("vector.codec_encode_ns_per_row", "ns/row");
  probe("vector.codec_decode_ns_per_row", "ns/row");
  if (counter_deltas_["presto_exchange_http_requests"] == 0 &&
      layers_.count("exchange.http_requests_per_query") > 0) {
    probe("exchange.http_requests_per_query", "count");
    probe("exchange.http_retries", "count");
  } else {
    sink->Emit("exchange.http_requests_per_query",
               counter_deltas_["presto_exchange_http_requests"] / n, "count");
    sink->Emit("exchange.http_retries",
               counter_deltas_["presto_exchange_http_retries"], "count");
  }
  mean("engine.execute_call_ms", "ms");
  mean("engine.first_page_ms", "ms");
  mean("engine.fetch_ms", "ms");
  sink->Emit("memory.peak_user_mb", peak_user_bytes_ / (1024.0 * 1024.0),
             "MB");
  sink->Emit("memory.spilled_bytes", static_cast<double>(spilled_bytes_),
             "bytes");
  sink->Emit("trace.latency_p50_ms", Percentile(read_ms_, 50), "ms");
  sink->Emit("trace.statements", static_cast<double>(traced_statements_),
             "count");

  std::vector<Span> spans = spans_.Snapshot();
  auto totals = TotalsByName(spans);
  for (const std::string name : kSpanNames) {
    sink->Emit("span." + name + ".self_ms", Ms(totals[name].self_ns) / n,
               "ms");
  }
  std::string path = options_.out_dir + "/spans-" + options_.workload +
                     "-seed" + std::to_string(options_.seed) + ".json";
  std::ofstream(path) << SpansToJson(spans);
  fprintf(stderr, "%zu spans with self times written to %s\n", spans.size(),
          path.c_str());
}

}  // namespace perfbench
