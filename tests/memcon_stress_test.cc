// Concurrent INSERT and SELECT on one memory-connector table. INSERT appends
// pages to the vector that scans read from; scans must copy their split's
// page range under the connector lock instead of indexing the live vector.
// Run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "connectors/memcon/memory_connector.h"
#include "engine/engine.h"
#include "vector/block_builder.h"

namespace presto {
namespace {

RowSchema Schema() {
  RowSchema schema;
  schema.Add("k", TypeKind::kBigint);
  return schema;
}

std::vector<Page> Pages(int64_t pages, int64_t rows_per_page) {
  std::vector<Page> out;
  for (int64_t p = 0; p < pages; ++p) {
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < rows_per_page; ++i) {
      keys.push_back(p * rows_per_page + i);
    }
    out.push_back(Page({MakeBigintBlock(std::move(keys))}));
  }
  return out;
}

TEST(MemoryConnectorStressTest, ConcurrentInsertAndCount) {
  constexpr int64_t kBaseRows = 8 * 256;
  constexpr int64_t kBatchRows = 4 * 128;
  constexpr int kInserts = 24;
  auto memory = std::make_shared<MemoryConnector>("memory");
  ASSERT_TRUE(memory->CreateTable("t", Schema(), Pages(8, 256)).ok());
  ASSERT_TRUE(memory->CreateTable("src", Schema(), Pages(4, 128)).ok());

  EngineOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executor.threads = 2;
  PrestoEngine engine(options);
  engine.catalog().Register(memory);
  engine.catalog().SetDefault("memory");

  std::atomic<bool> writing{true};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      auto rows = engine.ExecuteAndFetch("INSERT INTO t SELECT k FROM src");
      if (!rows.ok()) failures.fetch_add(1);
    }
    writing.store(false);
  });
  std::vector<std::thread> readers;
  std::atomic<int> reads{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // At least a few reads per thread, however fast the writer is.
      for (int n = 0; writing.load() || n < 3; ++n) {
        auto rows = engine.ExecuteAndFetch("SELECT count(*) FROM t");
        if (!rows.ok() || rows->size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        int64_t count = (*rows)[0][0].AsBigint();
        if (count < kBaseRows || count > kBaseRows + kInserts * kBatchRows) {
          failures.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(reads.load(), 6);

  auto rows = engine.ExecuteAndFetch("SELECT count(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0], Value::Bigint(kBaseRows + kInserts * kBatchRows));
  // Statistics describe exactly the visible pages.
  auto handle = memory->metadata().GetTable("t");
  ASSERT_TRUE(handle.ok());
  auto stats = memory->metadata().GetStats(**handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, kBaseRows + kInserts * kBatchRows);
}

}  // namespace
}  // namespace presto
