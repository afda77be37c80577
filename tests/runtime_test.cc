#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "connectors/memcon/memory_connector.h"
#include "engine/engine.h"
#include "exchange/exchange.h"
#include "exec/group_by_hash.h"
#include "exec/keys.h"
#include "exec/operators.h"
#include "exec/pages_index.h"
#include "exec/spiller.h"
#include "exec/task.h"
#include "memory/memory.h"
#include "schedule/task_executor.h"

namespace presto {
namespace {

// ---- memory pools ----

TEST(MemoryTest, ReserveReleaseAccounting) {
  MemoryConfig config;
  config.per_worker_general = 1000;
  config.enable_spill = false;
  config.enable_reserved_pool = false;
  WorkerMemory worker(&config, 0);
  QueryMemory query("q1", &config);
  EXPECT_TRUE(worker.Reserve(&query, 600, true).ok());
  EXPECT_EQ(worker.general_used(), 600);
  EXPECT_EQ(query.global_user(), 600);
  worker.Release(&query, 200, true);
  EXPECT_EQ(worker.general_used(), 400);
  EXPECT_EQ(query.global_user(), 400);
  EXPECT_EQ(query.peak_user(), 600);
}

TEST(MemoryTest, GeneralPoolExhaustionKills) {
  MemoryConfig config;
  config.per_worker_general = 1000;
  config.enable_spill = false;
  config.enable_reserved_pool = false;
  WorkerMemory worker(&config, 0);
  QueryMemory query("q1", &config);
  EXPECT_TRUE(worker.Reserve(&query, 900, true).ok());
  Status s = worker.Reserve(&query, 200, true);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(query.killed());
}

TEST(MemoryTest, PerQueryUserLimitEnforced) {
  MemoryConfig config;
  config.per_worker_general = 1LL << 30;
  config.per_query_per_node_user = 500;
  WorkerMemory worker(&config, 0);
  QueryMemory query("q1", &config);
  EXPECT_TRUE(worker.Reserve(&query, 400, true).ok());
  EXPECT_EQ(worker.Reserve(&query, 200, true).code(),
            StatusCode::kResourceExhausted);
  // System memory is not limited by the user cap (only the total cap).
  QueryMemory query2("q2", &config);
  EXPECT_TRUE(worker.Reserve(&query2, 600, false).ok());
}

TEST(MemoryTest, ReservedPoolPromotesSingleQuery) {
  MemoryConfig config;
  config.per_worker_general = 1000;
  config.per_worker_reserved = 1000;
  config.enable_spill = false;
  config.enable_reserved_pool = true;
  WorkerMemory worker(&config, 0);
  QueryMemory q1("q1", &config);
  QueryMemory q2("q2", &config);
  EXPECT_TRUE(worker.Reserve(&q1, 900, true).ok());
  // q2 overflows into the reserved pool.
  EXPECT_TRUE(worker.Reserve(&q2, 500, true).ok());
  EXPECT_EQ(worker.reserved_owner(), &q2);
  // q1 cannot also be promoted.
  EXPECT_EQ(worker.Reserve(&q1, 500, true).code(),
            StatusCode::kResourceExhausted);
  // Releasing q2's reserved memory frees the pool.
  worker.Release(&q2, 500, true);
  EXPECT_EQ(worker.reserved_owner(), nullptr);
}

namespace {
class CountingRevocable : public Revocable {
 public:
  CountingRevocable(WorkerMemory* worker, QueryMemory* query, int64_t held)
      : worker_(worker), query_(query), held_(held) {}
  int64_t Revoke() override {
    ++revokes;
    if (held_ > 0) {
      worker_->Release(query_, held_, true);
      int64_t freed = held_;
      held_ = 0;
      return freed;
    }
    return 0;
  }
  int revokes = 0;

 private:
  WorkerMemory* worker_;
  QueryMemory* query_;
  int64_t held_;
};
}  // namespace

TEST(MemoryTest, RevocationSpillsBeforeKilling) {
  MemoryConfig config;
  config.per_worker_general = 1000;
  config.enable_spill = true;
  config.enable_reserved_pool = false;
  WorkerMemory worker(&config, 0);
  QueryMemory q1("q1", &config);
  ASSERT_TRUE(worker.Reserve(&q1, 800, true).ok());
  CountingRevocable revocable(&worker, &q1, 800);
  worker.RegisterRevocable(&q1, &revocable);
  QueryMemory q2("q2", &config);
  EXPECT_TRUE(worker.Reserve(&q2, 600, true).ok());
  EXPECT_EQ(revocable.revokes, 1);
  EXPECT_GT(worker.revocations(), 0);
  worker.UnregisterRevocable(&revocable);
}

// ---- exchange ----

TEST(ExchangeTest, BufferBackpressureAndTokens) {
  ExchangeBuffer buffer(/*capacity=*/100);
  // Uncompressed codec keeps the frame's wire size predictable: ~400 bytes
  // of values plus the frame header, well over the 100-byte capacity.
  PageCodec codec(PageCodecOptions{PageCompression::kNone, true, true});
  PageCodec::Frame big =
      codec.Encode(Page({MakeBigintBlock(std::vector<int64_t>(50, 1))}));
  ASSERT_GT(big.wire_bytes(), 100);
  // Empty-buffer exception: an oversized frame is admitted when empty.
  EXPECT_TRUE(buffer.TryEnqueue(big));
  // Over capacity: the next enqueue is rejected (producer backpressure).
  EXPECT_FALSE(buffer.TryEnqueue(big));
  EXPECT_GT(buffer.utilization(), 0.9);
  bool finished = false;
  auto frame = buffer.Poll(&finished);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(finished);
  // Space freed: enqueue succeeds again.
  EXPECT_TRUE(buffer.TryEnqueue(big));
  buffer.NoMorePages();
  frame = buffer.Poll(&finished);
  EXPECT_TRUE(frame.has_value());
  frame = buffer.Poll(&finished);
  EXPECT_FALSE(frame.has_value());
  EXPECT_TRUE(finished);
  EXPECT_TRUE(buffer.finished());
  // Byte accounting is in wire bytes, raw bytes tracked alongside.
  EXPECT_EQ(buffer.total_bytes_sent(), 2 * big.wire_bytes());
  EXPECT_EQ(buffer.total_raw_bytes_sent(), 2 * big.raw_bytes);
  EXPECT_EQ(buffer.total_rows_sent(), 100);
}

TEST(ExchangeTest, ManagerRoutesStreams) {
  ExchangeManager manager({0, 0});
  manager.CreateOutputBuffers("q", 1, 0, 3, 1 << 20);
  EXPECT_NE(manager.GetBuffer({"q", 1, 0, 2}), nullptr);
  EXPECT_EQ(manager.GetBuffer({"q", 1, 1, 0}), nullptr);
  EXPECT_EQ(manager.GetBuffer({"other", 1, 0, 0}), nullptr);
  auto buffer = manager.GetBuffer({"q", 1, 0, 0});
  PageCodec::Frame frame =
      manager.codec().Encode(Page({MakeBigintBlock({1, 2, 3})}));
  buffer->TryEnqueue(frame);
  EXPECT_GT(manager.OutputUtilization("q", 1, 0), 0.0);
  // Cumulative serde counters survive query removal.
  EXPECT_EQ(manager.serialized_wire_bytes(), frame.wire_bytes());
  EXPECT_EQ(manager.serialized_raw_bytes(), frame.raw_bytes);
  manager.RemoveQuery("q");
  EXPECT_EQ(manager.GetBuffer({"q", 1, 0, 0}), nullptr);
  EXPECT_EQ(manager.serialized_wire_bytes(), frame.wire_bytes());
}

// ---- group-by hash ----

TEST(GroupByHashTest, AssignsDenseIdsAndRebuildsKeys) {
  GroupByHash table({TypeKind::kBigint, TypeKind::kVarchar});
  std::vector<int32_t> ids;
  table.ComputeGroupIds(
      {MakeBigintBlock({1, 2, 1, 3}),
       MakeVarcharBlock({"a", "b", "a", "a"})},
      4, &ids);
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 0, 2}));
  EXPECT_EQ(table.size(), 3);
  auto keys = table.BuildKeyBlocks(0, 3);
  EXPECT_EQ(keys[0]->GetValue(2), Value::Bigint(3));
  EXPECT_EQ(keys[1]->GetValue(1), Value::Varchar("b"));
}

TEST(GroupByHashTest, NullsFormTheirOwnGroup) {
  GroupByHash table({TypeKind::kBigint});
  std::vector<int32_t> ids;
  table.ComputeGroupIds({MakeBigintBlock({1, 0, 1}, {0, 1, 0})}, 3, &ids);
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_NE(ids[0], ids[1]);
  auto keys = table.BuildKeyBlocks(0, 2);
  EXPECT_TRUE(keys[0]->IsNull(1));
}

TEST(GroupByHashTest, GrowsPastInitialCapacity) {
  GroupByHash table({TypeKind::kBigint});
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 5000; ++i) values.push_back(i);
  std::vector<int32_t> ids;
  table.ComputeGroupIds({MakeBigintBlock(values)}, 5000, &ids);
  EXPECT_EQ(table.size(), 5000);
  // Re-probing the same keys yields the same ids.
  std::vector<int32_t> ids2;
  table.ComputeGroupIds({MakeBigintBlock(values)}, 5000, &ids2);
  EXPECT_EQ(ids, ids2);
}

// ---- pages index ----

TEST(PagesIndexTest, ConcatenatesAndCompares) {
  PagesIndex index({TypeKind::kBigint, TypeKind::kVarchar});
  index.AddPage(Page({MakeBigintBlock({3, 1}), MakeVarcharBlock({"c", "a"})}));
  index.AddPage(Page({MakeBigintBlock({2}), MakeVarcharBlock({"b"})}));
  index.Finish(/*extra_null_row=*/true);
  EXPECT_EQ(index.num_rows(), 3);
  EXPECT_EQ(index.columns()[0]->size(), 4);  // + null sentinel
  EXPECT_TRUE(index.columns()[0]->IsNull(3));
  KeyComparator keys(index.columns(), {{0, true}});
  EXPECT_LT(keys.Compare(1, 0), 0);  // 1 < 3
  EXPECT_GT(keys.Compare(2, 1), 0);  // 2 > 1
}

// ---- spiller ----

TEST(SpillerTest, RunsRoundTrip) {
  Spiller spiller;
  Page page({MakeBigintBlock({1, 2, 3}), MakeVarcharBlock({"x", "y", "z"})});
  auto run = spiller.SpillRun({page, page});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(spiller.num_runs(), 1);
  EXPECT_GT(spiller.spilled_bytes(), 0);
  auto pages = spiller.ReadRun(*run);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[1].block(1)->GetValue(2), Value::Varchar("z"));
}

// ---- MLFQ executor levels ----

TEST(TaskExecutorTest, LevelClassification) {
  ExecutorConfig config;
  config.threads = 1;
  TaskExecutor executor(config, 0);
  // LevelOf is private; exercise through thresholds semantics by checking
  // the configured defaults are ordered.
  for (int i = 0; i + 1 < 4; ++i) {
    EXPECT_LT(config.level_thresholds[i], config.level_thresholds[i + 1]);
  }
  double total = 0;
  for (double share : config.level_shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---- blocking and wake-up ----

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// Counts the rows reaching the end of a pipeline.
class CountingSink final : public Operator {
 public:
  CountingSink(std::unique_ptr<OperatorContext> ctx,
               std::atomic<int64_t>* rows)
      : Operator(std::move(ctx)), rows_(rows) {}
  bool needs_input() const override { return !no_more_input_; }
  Status AddInput(Page page) override {
    rows_->fetch_add(page.num_rows());
    return Status::OK();
  }
  Result<std::optional<Page>> GetOutput() override {
    return std::optional<Page>();
  }
  bool IsFinished() override { return no_more_input_; }

 private:
  std::atomic<int64_t>* rows_;
};

// Emits `pages` one-row pages, never blocking.
class CounterSource final : public Operator {
 public:
  CounterSource(std::unique_ptr<OperatorContext> ctx, int pages)
      : Operator(std::move(ctx)), remaining_(pages) {}
  bool needs_input() const override { return false; }
  Status AddInput(Page) override { return Status::Internal("no input"); }
  Result<std::optional<Page>> GetOutput() override {
    if (remaining_ == 0) return std::optional<Page>();
    --remaining_;
    return std::optional<Page>(Page({MakeBigintBlock({remaining_})}));
  }
  bool IsFinished() override { return remaining_ == 0; }

 private:
  int remaining_;
};

// A task whose drivers the test installs by hand (the Values root only
// satisfies TaskExec; Initialize is never called). It consumes partition
// `task_index` of fragment 1, which has `producers` tasks.
std::shared_ptr<TaskExec> HandBuiltTask(ExchangeManager* exchange,
                                        int task_index, int producers) {
  static const PlanFragment* fragment = [] {
    auto* f = new PlanFragment();
    f->root = std::make_shared<ValuesNode>(0, RowSchema(),
                                           std::vector<std::vector<Value>>{});
    return f;
  }();
  TaskSpec spec;
  spec.query_id = "q";
  spec.fragment_id = 2;
  spec.task_index = task_index;
  spec.consumer_partitions = 0;
  spec.source_task_counts = {{1, producers}};
  TaskRuntime runtime;
  runtime.exchange = exchange;
  return std::make_shared<TaskExec>(spec, runtime, fragment);
}

std::unique_ptr<OperatorContext> ContextOf(TaskExec& task, const char* label) {
  return std::make_unique<OperatorContext>(task.runtime(), task.spec(),
                                           label);
}

void AddDriver(TaskExec& task, std::unique_ptr<Operator> source,
               std::unique_ptr<Operator> sink) {
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::move(source));
  ops.push_back(std::move(sink));
  task.drivers().push_back(std::make_unique<Driver>(std::move(ops)));
}

// Runs `task` on `executor`; the future completes with its status.
std::future<Status> Start(TaskExecutor& executor,
                          std::shared_ptr<TaskExec> task) {
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> future = done->get_future();
  executor.AddTask(std::move(task),
                   [done](Status status) { done->set_value(status); });
  return future;
}

// Value of one sample line (`name{labels} value`) of a metrics rendering.
double MetricSample(const std::string& text, const std::string& series) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  ADD_FAILURE() << "no sample " << series;
  return -1;
}

// A producer thread races consumers that block and park on a one-thread
// executor: every push may land between a consumer's empty poll and its
// park. A lost wake-up leaves a consumer parked forever (the task never
// finishes); a wake that only a timer delivered shows as a deadline
// wake-up. A driver-to-driver pair adds a producer parked on a full queue
// and woken by the consumer's pops.
TEST(WakeupTest, ParkedConsumersMissNoWakeup) {
  constexpr int kPages = 3000;
  ExchangeManager manager(NetworkConfig{0, 0});
  manager.CreateOutputBuffers("q", 1, 0, 1, /*capacity_bytes=*/4096);
  std::shared_ptr<ExchangeBuffer> buffer = manager.GetBuffer({"q", 1, 0, 0});
  auto queue = std::make_shared<LocalExchangeQueue>(1, 4096);
  auto chained = std::make_shared<LocalExchangeQueue>(1, 1024);

  auto task = HandBuiltTask(&manager, 0, 1);
  std::atomic<int64_t> local_rows{0};
  std::atomic<int64_t> remote_rows{0};
  std::atomic<int64_t> chained_rows{0};
  AddDriver(*task,
            std::make_unique<LocalExchangeSourceOperator>(
                ContextOf(*task, "local_source"), queue),
            std::make_unique<CountingSink>(ContextOf(*task, "sink"),
                                           &local_rows));
  AddDriver(*task,
            std::make_unique<RemoteSourceOperator>(
                ContextOf(*task, "remote_source"), 1, 1),
            std::make_unique<CountingSink>(ContextOf(*task, "sink"),
                                           &remote_rows));
  AddDriver(*task,
            std::make_unique<CounterSource>(ContextOf(*task, "counter"),
                                            kPages),
            std::make_unique<LocalExchangeSinkOperator>(
                ContextOf(*task, "local_sink"), chained));
  AddDriver(*task,
            std::make_unique<LocalExchangeSourceOperator>(
                ContextOf(*task, "local_source"), chained),
            std::make_unique<CountingSink>(ContextOf(*task, "sink"),
                                           &chained_rows));

  ExecutorConfig config;
  config.threads = 1;
  TaskExecutor executor(config, 0);
  std::future<Status> done = Start(executor, task);

  std::atomic<bool> abort{false};
  std::thread producer([&] {
    Random rng(7);
    for (int i = 0; i < kPages && !abort.load(); ++i) {
      Page page({MakeBigintBlock({i})});
      while (!queue->TryPush(page) && !abort.load()) std::this_thread::yield();
      PageCodec::Frame frame = manager.codec().Encode(page);
      while (!buffer->TryEnqueue(frame) && !abort.load()) {
        std::this_thread::yield();
      }
      // Irregular gaps, so the consumers go idle and park in between.
      if (rng.NextUint64(8) == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.NextUint64(60)));
      }
    }
    queue->ProducerFinished();
    buffer->NoMorePages();
  });
  bool finished = done.wait_for(std::chrono::seconds(60)) ==
                  std::future_status::ready;
  abort.store(true);
  producer.join();
  ASSERT_TRUE(finished) << "a parked driver missed its wake-up";
  EXPECT_TRUE(done.get().ok());
  EXPECT_EQ(local_rows.load(), kPages);
  EXPECT_EQ(remote_rows.load(), kPages);
  EXPECT_EQ(chained_rows.load(), kPages);
  // No driver asked for a deadline, so none may have been woken by one.
  EXPECT_EQ(executor.deadline_wakeups(), 0);
  EXPECT_GT(executor.signal_wakeups(), 0);
  EXPECT_EQ(executor.parked_drivers(), 0);
}

// kThreads queries with a zero-cost network wait only on events: each
// blocked driver is re-armed by its signal, never by a deadline. Read
// through the exported /v1/metrics series.
TEST(WakeupTest, ThreadsQueriesWakeOnSignalsOnly) {
  EngineOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executor.threads = 2;
  options.cluster.network.latency_micros = 0;
  options.cluster.network.bytes_per_second = 0;
  PrestoEngine engine(options);
  auto mem = std::make_shared<MemoryConnector>("memory");
  RowSchema fact;
  fact.Add("k", TypeKind::kBigint);
  fact.Add("v", TypeKind::kBigint);
  std::vector<Page> pages;
  for (int p = 0; p < 32; ++p) {
    std::vector<int64_t> k(1024);
    std::vector<int64_t> v(1024);
    for (int i = 0; i < 1024; ++i) {
      k[static_cast<size_t>(i)] = (p * 1024 + i) % 100;
      v[static_cast<size_t>(i)] = p * 1024 + i;
    }
    pages.push_back(Page({MakeBigintBlock(k), MakeBigintBlock(v)}));
  }
  ASSERT_TRUE(mem->CreateTable("fact", fact, pages).ok());
  RowSchema dim;
  dim.Add("dk", TypeKind::kBigint);
  dim.Add("grp", TypeKind::kBigint);
  std::vector<int64_t> dk(100);
  std::vector<int64_t> grp(100);
  for (int i = 0; i < 100; ++i) {
    dk[static_cast<size_t>(i)] = i;
    grp[static_cast<size_t>(i)] = i % 7;
  }
  ASSERT_TRUE(mem->CreateTable("dim", dim,
                               {Page({MakeBigintBlock(dk),
                                      MakeBigintBlock(grp)})})
                  .ok());
  engine.catalog().Register(mem);

  struct Case {
    const char* sql;
    size_t rows;
  };
  for (const Case& c :
       {Case{"SELECT k, sum(v), count(*) FROM fact GROUP BY k", 100},
        Case{"SELECT grp, count(*) FROM fact JOIN dim ON k = dk GROUP BY grp",
             7},
        Case{"SELECT v FROM fact WHERE k = 3 ORDER BY v DESC", 328}}) {
    auto rows = engine.ExecuteAndFetch(c.sql);
    ASSERT_TRUE(rows.ok()) << c.sql << ": " << rows.status().ToString();
    EXPECT_EQ(rows->size(), c.rows) << c.sql;
  }
  std::string metrics = engine.metrics().RenderText();
  EXPECT_EQ(MetricSample(metrics,
                         "presto_executor_wakeups_total{cause=\"deadline\"}"),
            0);
  EXPECT_GT(MetricSample(metrics,
                         "presto_executor_wakeups_total{cause=\"signal\"}"),
            0);
}

// The simulated link still charges latency: a frame is not handed over
// before `latency_micros` passed since it was sent. Poll never sleeps and
// holds no lock across the wait, so the producer side stays live while
// the frame is in flight.
TEST(SimulatedNetworkTest, FrameLandsAfterLatency) {
  constexpr int64_t kLatencyMicros = 30'000;
  ExchangeBuffer buffer(1 << 20, nullptr, nullptr, 0, false, kLatencyMicros,
                        0);
  PageCodec codec(ExchangeManager::DefaultCodecOptions());
  PageCodec::Frame frame = codec.Encode(Page({MakeBigintBlock({1, 2, 3})}));
  Clock::time_point sent = Clock::now();
  ASSERT_TRUE(buffer.TryEnqueue(frame));
  bool finished = false;
  Clock::time_point arrives{};
  Clock::time_point polled = Clock::now();
  EXPECT_FALSE(buffer.Poll(&finished, nullptr, &arrives).has_value());
  EXPECT_LT(Clock::now() - polled, milliseconds(10)) << "Poll slept";
  EXPECT_FALSE(finished);
  EXPECT_GE(arrives - sent, std::chrono::microseconds(kLatencyMicros));
  EXPECT_TRUE(buffer.TryEnqueue(frame));  // not blocked by the wait
  EXPECT_GT(buffer.utilization(), 0.0);
  std::this_thread::sleep_until(arrives);
  EXPECT_TRUE(buffer.Poll(&finished, nullptr, &arrives).has_value());
}

// Frames from concurrent producers overlap on the wire: 4 producers x 4
// frames take about latency + (one buffer's bytes)/bandwidth, bounded by
// latency + (all bytes)/bandwidth, not 16 x latency as when each frame
// slept on the consumer's thread. The consumer parks on each arrival time
// (deadline wake-ups), never polls.
TEST(SimulatedNetworkTest, ConcurrentFramesOverlap) {
  constexpr int kProducers = 4;
  constexpr int kFramesEach = 4;
  constexpr int64_t kLatencyMicros = 40'000;
  PageCodec codec(ExchangeManager::DefaultCodecOptions());
  PageCodec::Frame frame = codec.Encode(
      Page({MakeBigintBlock(std::vector<int64_t>(4096, 42))}));
  // Each frame occupies its buffer's link for 2 ms.
  int64_t bytes_per_second = frame.wire_bytes() * 500;
  ExchangeManager manager(NetworkConfig{kLatencyMicros, bytes_per_second});
  for (int p = 0; p < kProducers; ++p) {
    manager.CreateOutputBuffers("q", 1, p, 1, 1 << 20);
  }
  auto task = HandBuiltTask(&manager, 0, kProducers);
  std::atomic<int64_t> rows{0};
  AddDriver(*task,
            std::make_unique<RemoteSourceOperator>(
                ContextOf(*task, "remote_source"), 1, kProducers),
            std::make_unique<CountingSink>(ContextOf(*task, "sink"), &rows));
  ExecutorConfig config;
  config.threads = 1;
  TaskExecutor executor(config, 0);
  std::future<Status> done = Start(executor, task);

  Clock::time_point start = Clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto buffer = manager.GetBuffer({"q", 1, p, 0});
      for (int f = 0; f < kFramesEach; ++f) {
        EXPECT_TRUE(buffer->TryEnqueue(frame));
      }
      buffer->NoMorePages();
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  auto elapsed = Clock::now() - start;
  EXPECT_TRUE(done.get().ok());
  EXPECT_EQ(rows.load(), int64_t{kProducers} * kFramesEach * 4096);
  auto latency = std::chrono::microseconds(kLatencyMicros);
  EXPECT_GE(elapsed, latency + kFramesEach * milliseconds(2));
  EXPECT_LT(elapsed, latency + kProducers * kFramesEach * milliseconds(2) +
                         milliseconds(100));
  EXPECT_LT(elapsed, kProducers * kFramesEach * latency / 2);
  EXPECT_GT(executor.deadline_wakeups(), 0);
}

// Two consumers waiting on in-flight frames share one executor thread and
// still overlap: two 60 ms transfers take ~60 ms, not ~120 ms. (The wait
// is a parked driver, not a sleep on the thread or under a lock.)
TEST(SimulatedNetworkTest, ConsumersOverlapOnOneThread) {
  NetworkConfig network;
  network.latency_micros = 60'000;
  network.bytes_per_second = 0;
  ExchangeManager manager(network);
  manager.CreateOutputBuffers("q", 1, 0, 2, 1 << 20);
  ExecutorConfig config;
  config.threads = 1;
  TaskExecutor executor(config, 0);
  std::atomic<int64_t> rows{0};
  std::vector<std::future<Status>> done;
  for (int consumer = 0; consumer < 2; ++consumer) {
    auto task = HandBuiltTask(&manager, consumer, 1);
    AddDriver(*task,
              std::make_unique<RemoteSourceOperator>(
                  ContextOf(*task, "remote_source"), 1, 1),
              std::make_unique<CountingSink>(ContextOf(*task, "sink"),
                                             &rows));
    done.push_back(Start(executor, task));
  }
  Clock::time_point start = Clock::now();
  PageCodec::Frame frame =
      manager.codec().Encode(Page({MakeBigintBlock({1, 2})}));
  for (int partition = 0; partition < 2; ++partition) {
    auto buffer = manager.GetBuffer({"q", 1, 0, partition});
    ASSERT_TRUE(buffer->TryEnqueue(frame));
    buffer->NoMorePages();
  }
  for (auto& d : done) {
    ASSERT_EQ(d.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_TRUE(d.get().ok());
  }
  auto elapsed = Clock::now() - start;
  EXPECT_EQ(rows.load(), 4);
  EXPECT_GE(elapsed, milliseconds(60));
  EXPECT_LT(elapsed, milliseconds(110)) << "transfers serialized";
  EXPECT_EQ(manager.transferred_bytes(), 2 * frame.wire_bytes());
}

}  // namespace
}  // namespace presto
