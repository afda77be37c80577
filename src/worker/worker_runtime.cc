#include "worker/worker_runtime.h"

namespace presto {

WorkerRuntime::WorkerRuntime(WorkerRuntimeConfig config,
                             std::shared_ptr<const Catalog> catalog)
    : config_(std::move(config)), catalog_(std::move(catalog)) {
  config_.network.transport = TransportMode::kHttp;
  memory_ = std::make_unique<WorkerMemory>(&config_.memory,
                                           config_.worker_id);
  exchange_ = std::make_unique<ExchangeManager>(config_.network);
  executor_ = std::make_unique<TaskExecutor>(config_.executor,
                                             config_.worker_id);
  WorkerTaskManagerOptions options;
  options.worker_memory = memory_.get();
  options.memory_config = &config_.memory;
  options.executor = executor_.get();
  options.exchange = exchange_.get();
  options.catalog = catalog_.get();
  options.worker_id = config_.worker_id;
  manager_ = std::make_unique<WorkerTaskManager>(options);
  exchange_service_ = std::make_unique<ExchangeHttpService>(
      exchange_.get(), config_.worker_id);
  // Always constructed (so /v1/info can report beat counters) but only
  // started once a coordinator port is known — at Start() when configured
  // up front, or later via StartHeartbeat() (stdin command).
  heartbeat_ = std::make_unique<HeartbeatSender>(
      config_.coordinator_port, config_.worker_id,
      config_.heartbeat_interval_micros);
  task_service_ = std::make_unique<TaskService>(
      manager_.get(), config_.worker_id, heartbeat_.get());
  WorkerMetricsService::Sources sources;
  sources.worker_id = config_.worker_id;
  sources.metrics = &metrics_;
  sources.manager = manager_.get();
  sources.executor = executor_.get();
  sources.memory = memory_.get();
  sources.exchange = exchange_.get();
  sources.heartbeat = heartbeat_.get();
  metrics_service_ = std::make_unique<WorkerMetricsService>(sources);
  RegisterWorkerGauges();
}

void WorkerRuntime::RegisterWorkerGauges() {
  // presto_worker_* gauges (ISSUE 10): the worker-side slice of the state
  // the coordinator's engine gauges cover for in-process workers. The
  // coordinator's /v1/cluster/metrics scrapes these and re-labels them per
  // worker, so names stay label-free here.
  WorkerMemory* memory = memory_.get();
  metrics_.RegisterGauge("presto_worker_memory_general_used_bytes",
                         "Bytes allocated from the worker general pool",
                         [memory] {
                           return static_cast<double>(memory->general_used());
                         });
  metrics_.RegisterGauge(
      "presto_worker_memory_reserved_used_bytes",
      "Bytes allocated from the worker reserved pool",
      [memory] { return static_cast<double>(memory->reserved_used()); });
  metrics_.RegisterGauge("presto_worker_memory_peak_general_used_bytes",
                         "Peak bytes allocated from the worker general pool",
                         [memory] {
                           return static_cast<double>(
                               memory->peak_general_used());
                         });
  WorkerTaskManager* manager = manager_.get();
  metrics_.RegisterGauge(
      "presto_worker_active_tasks",
      "Tasks currently registered with the worker task manager",
      [manager] { return static_cast<double>(manager->active_tasks()); });
  TaskExecutor* executor = executor_.get();
  metrics_.RegisterGauge(
      "presto_worker_running_drivers",
      "Drivers registered with the executor and not yet drained",
      [executor] { return static_cast<double>(executor->running_drivers()); });
  metrics_.RegisterGauge(
      "presto_worker_parked_drivers",
      "Blocked drivers parked outside the runnable queues",
      [executor] { return static_cast<double>(executor->parked_drivers()); });
  // Why parked drivers were re-armed: a rising deadline count with no
  // timed waits in the plan means a signal was never sent.
  metrics_.RegisterGauge(
      "presto_executor_wakeups_total",
      "Parked drivers re-armed, by cause (the awaited event or a deadline)",
      [executor] { return static_cast<double>(executor->signal_wakeups()); },
      {{"cause", "signal"}});
  metrics_.RegisterGauge(
      "presto_executor_wakeups_total",
      "Parked drivers re-armed, by cause (the awaited event or a deadline)",
      [executor] { return static_cast<double>(executor->deadline_wakeups()); },
      {{"cause", "deadline"}});
  for (int level = 0; level < 5; ++level) {
    metrics_.RegisterGauge(
        "presto_worker_queue_depth",
        "Runnable drivers queued per MLFQ level",
        [executor, level] {
          return static_cast<double>(executor->queue_depth(level));
        },
        {{"level", std::to_string(level)}});
  }
  metrics_.RegisterGauge(
      "presto_worker_executor_busy_nanos",
      "Total CPU-busy nanoseconds across executor threads",
      [executor] { return static_cast<double>(executor->busy_nanos()); });
  ExchangeManager* exchange = exchange_.get();
  metrics_.RegisterGauge("presto_worker_exchange_buffered_bytes",
                         "Bytes sitting in live exchange output buffers",
                         [exchange] {
                           return static_cast<double>(
                               exchange->TotalBufferedBytes());
                         });
  metrics_.RegisterGauge("presto_worker_exchange_retained_bytes",
                         "Bytes retained for task-retry replay",
                         [exchange] {
                           return static_cast<double>(
                               exchange->TotalRetainedBytes());
                         });
  HeartbeatSender* heartbeat = heartbeat_.get();
  metrics_.RegisterGauge(
      "presto_worker_heartbeats_sent",
      "Heartbeat POSTs delivered to the coordinator",
      [heartbeat] { return static_cast<double>(heartbeat->sent()); });
  metrics_.RegisterGauge(
      "presto_worker_heartbeats_failed",
      "Heartbeat POSTs that failed in transport",
      [heartbeat] { return static_cast<double>(heartbeat->failed()); });
  metrics_.RegisterGauge("presto_worker_heartbeat_rtt_micros",
                         "Round trip of the worker's last heartbeat POST",
                         [heartbeat] {
                           return static_cast<double>(
                               heartbeat->last_rtt_micros());
                         });
}

WorkerRuntime::~WorkerRuntime() { Stop(); }

Status WorkerRuntime::Start() {
  PRESTO_RETURN_IF_ERROR(exchange_service_->Start());
  PRESTO_RETURN_IF_ERROR(task_service_->Start());
  // The metrics service starts before the heartbeat loop so every beat can
  // advertise the observability port (ISSUE 10).
  PRESTO_RETURN_IF_ERROR(metrics_service_->Start());
  heartbeat_->set_metrics_port(metrics_service_->port());
  if (config_.coordinator_port >= 0) heartbeat_->Start();
  return Status::OK();
}

void WorkerRuntime::StartHeartbeat(int coordinator_port) {
  if (coordinator_port < 0 || stopped_) return;
  heartbeat_->Stop();
  heartbeat_->set_coordinator_port(coordinator_port);
  heartbeat_->set_metrics_port(metrics_service_->port());
  heartbeat_->Start();
}

void WorkerRuntime::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (heartbeat_ != nullptr) heartbeat_->Stop();
  // Quiesce tasks first: in-flight long-polls wake immediately, so the
  // HTTP servers' Stop() (which joins handler threads) converges fast.
  manager_->Shutdown();
  task_service_->Stop();
  exchange_service_->Stop();
  metrics_service_->Stop();
}

}  // namespace presto
