#include <gtest/gtest.h>

#include <thread>

#include "exchange/exchange.h"
#include "exec/group_by_hash.h"
#include "exec/keys.h"
#include "exec/pages_index.h"
#include "exec/spiller.h"
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

}  // namespace
}  // namespace presto
