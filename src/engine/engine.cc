#include "engine/engine.h"

#include "engine/observability_http.h"
#include "exec/spiller.h"
#include "fragment/fragmenter.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace presto {

Result<std::optional<Page>> QueryResult::Next() {
  PRESTO_ASSIGN_OR_RETURN(std::optional<Page> page,
                          execution_->results().Next());
  if (!page.has_value() && write_connector_ != nullptr && !write_committed_) {
    // Stream completed successfully: commit the CTAS/INSERT target.
    write_committed_ = true;
    PRESTO_RETURN_IF_ERROR(
        write_connector_->metadata().FinishWrite(*write_target_));
  }
  return page;
}

Result<std::vector<Page>> QueryResult::FetchAll() {
  std::vector<Page> pages;
  for (;;) {
    PRESTO_ASSIGN_OR_RETURN(std::optional<Page> page, Next());
    if (!page.has_value()) break;
    pages.push_back(std::move(*page));
  }
  PRESTO_RETURN_IF_ERROR(Wait());
  return pages;
}

Result<std::vector<std::vector<Value>>> QueryResult::FetchAllRows() {
  PRESTO_ASSIGN_OR_RETURN(std::vector<Page> pages, FetchAll());
  std::vector<std::vector<Value>> rows;
  for (const auto& page : pages) {
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      rows.push_back(page.GetRow(r));
    }
  }
  return rows;
}

void QueryResult::Cancel() {
  execution_->Cancel(Status::Cancelled("cancelled by client"));
}

PrestoEngine::PrestoEngine(EngineOptions options)
    : options_(std::move(options)),
      metadata_manager_(
          std::make_unique<MetadataManager>(&catalog_, options_.metadata)),
      metrics_(std::make_unique<MetricsRegistry>()),
      tracker_(std::make_unique<QueryTracker>(metrics_.get())),
      cluster_(std::make_unique<Cluster>(options_.cluster)),
      coordinator_(std::make_unique<Coordinator>(cluster_.get(), &catalog_)) {
  coordinator_->SetMetadataManager(metadata_manager_.get());
  RegisterEngineGauges();
  cluster_->exchange().SetTraceRegistry(&traces_);
  // Latency histograms, installed into the executors/exchange as raw
  // pointers (the registry owns them and outlives both, member order).
  Histogram* quantum = metrics_->RegisterHistogram(
      "presto_executor_quantum_seconds",
      "Duration of MLFQ scheduling quanta",
      LogBuckets(0.00001, 4, 10));
  for (int i = 0; i < cluster_->local_workers(); ++i) {
    cluster_->worker(i).executor().set_quantum_histogram(quantum);
  }
  cluster_->exchange().set_poll_wait_histogram(metrics_->RegisterHistogram(
      "presto_exchange_poll_wait_seconds",
      "Server-side exchange long-poll wait per GET",
      LogBuckets(0.0001, 4, 8)));
  cluster_->exchange().set_http_request_histogram(
      metrics_->RegisterHistogram(
          "presto_exchange_http_request_seconds",
          "Client-side exchange HTTP request round-trip time per attempt",
          LogBuckets(0.0001, 4, 8)));
  // ISSUE 6: worker heartbeat round trips, as reported by the workers in
  // their next beat (micros; empty in kThreads mode).
  cluster_->liveness().set_rtt_histogram(metrics_->RegisterHistogram(
      "presto_heartbeat_rtt_micros",
      "Worker heartbeat POST round-trip time in microseconds",
      LogBuckets(100, 4, 8)));
  // ISSUE 7: task retry on worker death — how often tasks were re-created
  // and how long a recovery round takes end to end.
  // Each counter is labeled with the trace-instant name the coordinator
  // records at the same event (ISSUE 10), so a Prometheus sample can be
  // cross-referenced against the query's Chrome trace timeline. Readers
  // must register with the identical label set (labels are part of a
  // sample's identity).
  coordinator_->SetRecoveryInstruments(
      metrics_->RegisterCounter(
          "presto_task_retries_total",
          "Tasks re-created on a replacement worker after a worker death",
          {{"trace_instant", "task_recovery"}}),
      metrics_->RegisterHistogram(
          "presto_task_recovery_seconds",
          "Latency of one recovery round: restart-set computation through "
          "replacement launch and split-journal replay",
          LogBuckets(0.001, 4, 8)));
  // ISSUE 9: speculative execution of stragglers — replicas launched and
  // replicas that beat their original to completion.
  coordinator_->SetSpeculationInstruments(
      metrics_->RegisterCounter(
          "presto_task_speculations_total",
          "Speculative replicas launched against straggling tasks",
          {{"trace_instant", "task_speculate"}}),
      metrics_->RegisterCounter(
          "presto_speculation_wins_total",
          "Speculative replicas that finished before their original and "
          "were promoted",
          {{"trace_instant", "speculation_win"}}));
  // ISSUE 10: cross-process trace shipping, per hosting worker — spans
  // merged into coordinator traces and spans the worker's bounded recorder
  // dropped before they could ship.
  std::vector<Counter*> trace_shipped, trace_dropped;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    MetricLabels labels = {{"worker", "w" + std::to_string(w)}};
    trace_shipped.push_back(metrics_->RegisterCounter(
        "presto_trace_shipped_spans_total",
        "Worker trace spans merged into coordinator query traces", labels));
    trace_dropped.push_back(metrics_->RegisterCounter(
        "presto_trace_dropped_spans_total",
        "Worker trace spans dropped at the per-query cap before shipping",
        labels));
  }
  coordinator_->SetTraceShippingInstruments(std::move(trace_shipped),
                                            std::move(trace_dropped));
}

PrestoEngine::~PrestoEngine() { StopObservability(); }

Result<std::string> PrestoEngine::QueryTraceJson(
    const std::string& query_id) const {
  std::shared_ptr<QueryLifecycle> lifecycle = tracker_->Lookup(query_id);
  if (lifecycle == nullptr) {
    return Status::NotFound("no such query: " + query_id);
  }
  return lifecycle->trace()->ToChromeTraceJson();
}

Status PrestoEngine::StartObservability() {
  if (observability_ != nullptr) return Status::OK();
  auto service = std::make_unique<ObservabilityHttpService>(this);
  PRESTO_RETURN_IF_ERROR(service->Start());
  observability_ = std::move(service);
  return Status::OK();
}

void PrestoEngine::StopObservability() {
  if (observability_ == nullptr) return;
  observability_->Stop();
  observability_.reset();
}

int PrestoEngine::observability_port() const {
  return observability_ != nullptr ? observability_->port() : -1;
}

void PrestoEngine::RegisterEngineGauges() {
  // Gauges capture `this`; the registry outlives cluster_/coordinator_
  // (member order), and nothing renders metrics during destruction.
  metrics_->RegisterGauge(
      "presto_queries_running", "Queries currently holding an admission slot",
      [this] { return static_cast<double>(coordinator_->running_queries()); });
  metrics_->RegisterGauge(
      "presto_queries_queued", "Queries waiting for an admission slot",
      [this] { return static_cast<double>(coordinator_->queued_queries()); });
  metrics_->RegisterGauge(
      "presto_cluster_alive_workers",
      "Workers currently considered alive by the heartbeat failure detector",
      [this] {
        return static_cast<double>(
            cluster_->liveness().AliveCount(cluster_->num_workers()));
      });
  metrics_->RegisterGauge(
      "presto_memory_general_used_bytes",
      "General-pool bytes in use across all workers", [this] {
        int64_t total = 0;
        for (int i = 0; i < cluster_->local_workers(); ++i) {
          total += cluster_->worker(i).memory().general_used();
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterGauge(
      "presto_memory_general_peak_bytes",
      "High-water mark of general-pool usage across all workers", [this] {
        int64_t total = 0;
        for (int i = 0; i < cluster_->local_workers(); ++i) {
          total += cluster_->worker(i).memory().peak_general_used();
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterGauge(
      "presto_memory_reserved_used_bytes",
      "Reserved-pool bytes in use across all workers", [this] {
        int64_t total = 0;
        for (int i = 0; i < cluster_->local_workers(); ++i) {
          total += cluster_->worker(i).memory().reserved_used();
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterGauge(
      "presto_memory_revocations_total",
      "Memory revocation (spill) requests issued across all workers", [this] {
        int64_t total = 0;
        for (int i = 0; i < cluster_->local_workers(); ++i) {
          total += cluster_->worker(i).memory().revocations();
        }
        return static_cast<double>(total);
      });
  metrics_->RegisterGauge(
      "presto_exchange_buffered_bytes",
      "Bytes currently buffered in the shuffle fabric", [this] {
        return static_cast<double>(cluster_->exchange().TotalBufferedBytes());
      });
  metrics_->RegisterGauge(
      "presto_exchange_transferred_bytes_total",
      "Cumulative bytes moved through the shuffle fabric", [this] {
        return static_cast<double>(cluster_->exchange().transferred_bytes());
      });
  metrics_->RegisterGauge(
      "presto_exchange_serialized_bytes",
      "Cumulative serialized (wire) bytes enqueued into exchange buffers",
      [this] {
        return static_cast<double>(
            cluster_->exchange().serialized_wire_bytes());
      });
  metrics_->RegisterGauge(
      "presto_exchange_compression_ratio",
      "Raw page bytes divided by serialized wire bytes across all shuffles",
      [this] {
        int64_t wire = cluster_->exchange().serialized_wire_bytes();
        if (wire == 0) return 1.0;
        return static_cast<double>(
                   cluster_->exchange().serialized_raw_bytes()) /
               static_cast<double>(wire);
      });
  metrics_->RegisterGauge(
      "presto_exchange_http_requests",
      "HTTP exchange requests attempted (including retried attempts)",
      [this] {
        return static_cast<double>(cluster_->exchange().http_requests());
      });
  metrics_->RegisterGauge(
      "presto_exchange_http_retries",
      "HTTP exchange attempts beyond the first per round trip", [this] {
        return static_cast<double>(cluster_->exchange().http_retries());
      });
  metrics_->RegisterGauge(
      "presto_exchange_inflight_bytes",
      "Wire bytes sent to consumers but not yet acknowledged", [this] {
        return static_cast<double>(cluster_->exchange().TotalInflightBytes());
      });
  metrics_->RegisterGauge(
      "presto_spill_compressed_bytes",
      "Cumulative compressed bytes written to spill files", [] {
        return static_cast<double>(Spiller::TotalCompressedBytes());
      });
  metrics_->RegisterGauge(
      "presto_executor_busy_nanos_total",
      "Cumulative executor busy time across all workers", [this] {
        return static_cast<double>(cluster_->total_busy_nanos());
      });
  // One labeled family instead of five level-suffixed names, so Prometheus
  // can aggregate/filter across levels.
  for (int level = 0; level < 5; ++level) {
    metrics_->RegisterGauge(
        "presto_executor_quanta_total",
        "Scheduling quanta executed per MLFQ level",
        [this, level] {
          int64_t total = 0;
          for (int i = 0; i < cluster_->local_workers(); ++i) {
            total += cluster_->worker(i).executor().quanta_at_level(level);
          }
          return static_cast<double>(total);
        },
        {{"level", std::to_string(level)}});
  }
  for (bool deadline : {false, true}) {
    metrics_->RegisterGauge(
        "presto_executor_wakeups_total",
        "Parked drivers re-armed, by cause (the awaited event or a deadline)",
        [this, deadline] {
          int64_t total = 0;
          for (int i = 0; i < cluster_->local_workers(); ++i) {
            TaskExecutor& executor = cluster_->worker(i).executor();
            total += deadline ? executor.deadline_wakeups()
                              : executor.signal_wakeups();
          }
          return static_cast<double>(total);
        },
        {{"cause", deadline ? "deadline" : "signal"}});
  }
  // ISSUE 8: planning-path cache layers. Gauges read the caches' internal
  // monotonic counters, so /v1/metrics always reports live totals.
  MetadataManager* mm = metadata_manager_.get();
  metrics_->RegisterGauge("presto_metadata_cache_hits",
                          "Metadata cache lookups served from cache",
                          [mm] {
                            return static_cast<double>(
                                mm->metadata_cache().hits());
                          });
  metrics_->RegisterGauge("presto_metadata_cache_misses",
                          "Metadata cache lookups that fetched from the "
                          "connector",
                          [mm] {
                            return static_cast<double>(
                                mm->metadata_cache().misses());
                          });
  metrics_->RegisterGauge("presto_metadata_cache_invalidations",
                          "Metadata cache entries dropped by version bumps "
                          "or explicit invalidation",
                          [mm] {
                            return static_cast<double>(
                                mm->metadata_cache().invalidations());
                          });
  metrics_->RegisterGauge("presto_split_cache_hits",
                          "Split enumerations replayed from cache", [mm] {
                            return static_cast<double>(
                                mm->split_cache().hits());
                          });
  metrics_->RegisterGauge("presto_split_cache_misses",
                          "Split enumerations that ran against the connector",
                          [mm] {
                            return static_cast<double>(
                                mm->split_cache().misses());
                          });
  metrics_->RegisterGauge("presto_split_cache_invalidations",
                          "Cached split enumerations dropped by table "
                          "mutations",
                          [mm] {
                            return static_cast<double>(
                                mm->split_cache().invalidations());
                          });
  metrics_->RegisterGauge("presto_plan_cache_hits",
                          "Queries planned from a cached fragmented plan",
                          [mm] {
                            return static_cast<double>(
                                mm->plan_cache().hits());
                          });
  metrics_->RegisterGauge("presto_plan_cache_misses",
                          "Queries that ran the full planning pipeline",
                          [mm] {
                            return static_cast<double>(
                                mm->plan_cache().misses());
                          });
  metrics_->RegisterGauge("presto_plan_cache_invalidations",
                          "Cached plans dropped because a dependency table "
                          "mutated",
                          [mm] {
                            return static_cast<double>(
                                mm->plan_cache().invalidations());
                          });
}

Status PrestoEngine::InvalidateMetadata(const std::string& catalog,
                                        const std::string& table) {
  PRESTO_ASSIGN_OR_RETURN(Connector * connector, catalog_.Get(catalog));
  if (!table.empty()) {
    metadata_manager_->Invalidate(catalog, table);
    return Status::OK();
  }
  for (const auto& name : connector->metadata().ListTables()) {
    metadata_manager_->Invalidate(catalog, name);
  }
  return Status::OK();
}

Result<FragmentedPlan> PrestoEngine::PlanStatement(
    const sql::Statement& stmt, const std::string& sql,
    TraceRecorder* trace) {
  auto timed = [trace](const char* name, auto fn) {
    int64_t start = trace != nullptr ? trace->NowNanos() : 0;
    auto result = fn();
    if (trace != nullptr) {
      trace->RecordSpan("coordinator", name, /*pid=*/0, /*tid=*/0, start,
                        trace->NowNanos() - start);
    }
    return result;
  };
  // Only SELECT plans are cacheable: CTAS/INSERT planning calls
  // BeginCreateTable, which mutates connector state and must run per query.
  bool cacheable = options_.metadata.enable_plan_cache &&
                   stmt.kind == sql::StatementKind::kSelect;
  uint64_t fingerprint = 0;
  if (cacheable) {
    fingerprint = FingerprintSql(sql);
    if (std::optional<FragmentedPlan> cached =
            metadata_manager_->plan_cache().Lookup(fingerprint, catalog_)) {
      if (trace != nullptr) {
        trace->RecordInstant("coordinator", "plan-cache-hit", /*pid=*/0,
                             /*tid=*/0,
                             {{"fingerprint", std::to_string(fingerprint)}});
      }
      return std::move(*cached);
    }
  }
  std::unique_ptr<MetadataSnapshot> snapshot = metadata_manager_->NewSnapshot();
  Planner planner(snapshot.get());
  PRESTO_ASSIGN_OR_RETURN(
      PlanNodePtr plan, timed("plan", [&] { return planner.Plan(stmt); }));
  Optimizer optimizer(snapshot.get(), options_.optimizer);
  PRESTO_ASSIGN_OR_RETURN(plan, timed("optimize", [&] {
                            return optimizer.Optimize(std::move(plan));
                          }));
  Fragmenter fragmenter;
  PRESTO_ASSIGN_OR_RETURN(FragmentedPlan fragments, timed("fragment", [&] {
                            return fragmenter.Fragment(plan);
                          }));
  if (trace != nullptr && snapshot->cache_hits() > 0) {
    trace->RecordInstant(
        "coordinator", "metadata-cache-hit", /*pid=*/0, /*tid=*/0,
        {{"tables_from_cache", std::to_string(snapshot->cache_hits())},
         {"tables_resolved", std::to_string(snapshot->resolutions())}});
  }
  if (cacheable) {
    metadata_manager_->plan_cache().Insert(fingerprint, fragments,
                                           snapshot->deps(), catalog_);
  }
  return fragments;
}

Result<std::string> PrestoEngine::Explain(const std::string& sql) {
  PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  PRESTO_ASSIGN_OR_RETURN(FragmentedPlan fragments,
                          PlanStatement(*stmt, sql));
  return fragments.ToString();
}

Result<std::shared_ptr<QueryExecution>> PrestoEngine::Launch(
    const sql::Statement& stmt, const std::string& sql,
    const std::string& query_id) {
  std::shared_ptr<QueryLifecycle> lifecycle =
      tracker_->Register(query_id, sql);
  traces_.Register(query_id, lifecycle->trace());
  lifecycle->MarkPlanning();
  Result<FragmentedPlan> fragments =
      PlanStatement(stmt, sql, lifecycle->trace().get());
  if (!fragments.ok()) {
    lifecycle->Finalize(fragments.status(), /*cancelled=*/false,
                        QueryStats{});
    return fragments.status();
  }
  Result<std::shared_ptr<QueryExecution>> execution = coordinator_->Execute(
      query_id, std::move(fragments).value(), lifecycle);
  if (!execution.ok()) {
    lifecycle->Finalize(execution.status(), /*cancelled=*/false,
                        QueryStats{});
    return execution.status();
  }
  // weak_ptr: a shared_ptr here would close a lifecycle->execution cycle
  // that Finalize() breaks while holding the execution's mutex.
  std::weak_ptr<QueryExecution> weak = execution.value();
  lifecycle->SetLiveStatsProvider([weak] {
    std::shared_ptr<QueryExecution> live = weak.lock();
    return live != nullptr ? live->StatsSnapshot() : QueryStats{};
  });
  lifecycle->SetTaskProgressProvider([weak] {
    std::shared_ptr<QueryExecution> live = weak.lock();
    return live != nullptr ? live->TaskProgressSnapshot()
                           : std::vector<TaskProgress>{};
  });
  return execution;
}

Result<QueryResult> PrestoEngine::Execute(const std::string& sql) {
  PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  if (stmt->explain) {
    // EXPLAIN executes no result stream; the plan text is the answer.
    return Status::Unsupported(
        "use PrestoEngine::Explain / ExplainAnalyze for EXPLAIN statements");
  }
  std::string query_id =
      "query_" + std::to_string(next_query_id_.fetch_add(1));
  PRESTO_ASSIGN_OR_RETURN(std::shared_ptr<QueryExecution> execution,
                          Launch(*stmt, sql, query_id));
  QueryResult result;
  result.execution_ = std::move(execution);
  // CTAS/INSERT: remember the target for commit after completion.
  if (stmt->kind == sql::StatementKind::kCreateTableAs ||
      stmt->kind == sql::StatementKind::kInsert) {
    std::string connector_name = stmt->target_name.size() == 2
                                     ? stmt->target_name[0]
                                     : catalog_.default_name();
    std::string table_name = stmt->target_name.back();
    PRESTO_ASSIGN_OR_RETURN(Connector * connector,
                            catalog_.Get(connector_name));
    PRESTO_ASSIGN_OR_RETURN(TableHandlePtr target,
                            connector->metadata().GetTable(table_name));
    result.write_connector_ = connector;
    result.write_target_ = std::move(target);
  }
  return result;
}

Result<std::string> PrestoEngine::ExplainAnalyze(const std::string& sql) {
  // Accepts both "EXPLAIN ANALYZE <query>" and a bare query: the parser
  // strips the EXPLAIN prefix into statement flags either way.
  PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  std::string query_id =
      "query_" + std::to_string(next_query_id_.fetch_add(1));
  PRESTO_ASSIGN_OR_RETURN(std::shared_ptr<QueryExecution> execution,
                          Launch(*stmt, sql, query_id));
  // Drain the result stream (rows are discarded; only stats matter).
  for (;;) {
    PRESTO_ASSIGN_OR_RETURN(std::optional<Page> page,
                            execution->results().Next());
    if (!page.has_value()) break;
  }
  PRESTO_RETURN_IF_ERROR(execution->Wait());
  std::string text =
      RenderAnnotatedPlan(execution->plan(), execution->StatsSnapshot());
  if (stmt->explain_verbose) {
    // EXPLAIN ANALYZE VERBOSE: append the compact trace timeline (the full
    // Chrome JSON stays behind QueryTraceJson / the /v1 trace endpoint).
    std::shared_ptr<QueryLifecycle> lifecycle = tracker_->Lookup(query_id);
    if (lifecycle != nullptr) {
      text += "\nTimeline:\n" + lifecycle->trace()->ToTimelineText();
    }
  }
  return text;
}

Result<std::vector<std::vector<Value>>> PrestoEngine::ExecuteAndFetch(
    const std::string& sql) {
  PRESTO_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  if (stmt->explain) {
    PRESTO_ASSIGN_OR_RETURN(
        std::string text,
        stmt->explain_analyze ? ExplainAnalyze(sql) : Explain(sql));
    return std::vector<std::vector<Value>>{{Value::Varchar(text)}};
  }
  PRESTO_ASSIGN_OR_RETURN(QueryResult result, Execute(sql));
  return result.FetchAllRows();
}

Result<QueryInfo> PrestoEngine::QueryInfoFor(
    const std::string& query_id) const {
  return tracker_->Info(query_id);
}

std::vector<QueryInfo> PrestoEngine::ListQueries() const {
  return tracker_->List();
}

void PrestoEngine::AddEventListener(std::shared_ptr<EventListener> listener) {
  tracker_->AddListener(std::move(listener));
}

}  // namespace presto
