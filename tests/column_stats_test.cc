#include <gtest/gtest.h>

#include <cmath>
#include <regex>

#include "connector/column_stats.h"
#include "connector/scan_util.h"
#include "connectors/hive/hive_connector.h"
#include "connectors/memcon/memory_connector.h"
#include "connectors/raptor/raptor_connector.h"
#include "connectors/shardedstore/sharded_store.h"
#include "connectors/tpch/tpch_connector.h"
#include "engine/engine.h"
#include "vector/block_builder.h"
#include "vector/encoded_block.h"

namespace presto {
namespace {

RowSchema BigintSchema(std::initializer_list<const char*> names) {
  RowSchema schema;
  for (const char* name : names) schema.Add(name, TypeKind::kBigint);
  return schema;
}

Page BigintPage(int64_t begin, int64_t end, int64_t modulo) {
  std::vector<int64_t> ids, keys;
  for (int64_t i = begin; i < end; ++i) {
    ids.push_back(i);
    keys.push_back(i % modulo);
  }
  return Page({MakeBigintBlock(std::move(ids)), MakeBigintBlock(keys)});
}

TableStats BuildFrom(const RowSchema& schema, const std::vector<Page>& pages) {
  ColumnStatsBuilder builder(schema);
  for (const auto& page : pages) builder.Add(page);
  return builder.Build();
}

void ExpectSameStats(const TableStats& actual, const TableStats& expected) {
  EXPECT_EQ(actual.row_count, expected.row_count);
  ASSERT_EQ(actual.columns.size(), expected.columns.size());
  for (const auto& [name, want] : expected.columns) {
    SCOPED_TRACE(name);
    ASSERT_EQ(actual.columns.count(name), 1u);
    const ColumnStats& got = actual.columns.at(name);
    EXPECT_EQ(got.distinct_values, want.distinct_values);
    EXPECT_DOUBLE_EQ(got.null_fraction, want.null_fraction);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
  }
}

// ---- the builder ----

TEST(ColumnStatsBuilderTest, SmallNdvIsExact) {
  RowSchema schema = BigintSchema({"id", "k"});
  ColumnStatsBuilder builder(schema);
  // k cycles through 0..999 (0 hashes to 0, the set's reserved key).
  for (int64_t begin = 0; begin < 20000; begin += 4096) {
    builder.Add(BigintPage(begin, std::min<int64_t>(begin + 4096, 20000),
                           1000));
  }
  TableStats stats = builder.Build();
  EXPECT_EQ(stats.row_count, 20000);
  EXPECT_EQ(stats.columns.at("k").distinct_values, 1000);
  EXPECT_EQ(stats.columns.at("k").min, Value::Bigint(0));
  EXPECT_EQ(stats.columns.at("k").max, Value::Bigint(999));

  RowSchema cat;
  cat.Add("cat", TypeKind::kVarchar);
  ColumnStatsBuilder cats(cat);
  cats.Add(Page({MakeVarcharBlock({"alpha", "beta", "gamma", "beta"})}));
  EXPECT_EQ(cats.Build().columns.at("cat").distinct_values, 3);
}

TEST(ColumnStatsBuilderTest, LargeNdvWithinThreeSigma) {
  // 2^21 distinct BIGINTs: the 2^11-register sketch has ~2.3% standard
  // error, so 3 sigma is ~7%. The seed statistics capped this at 100k.
  constexpr int64_t kRows = 2097152;
  RowSchema schema = BigintSchema({"id", "k"});
  ColumnStatsBuilder builder(schema);
  for (int64_t begin = 0; begin < kRows; begin += 8192) {
    builder.Add(BigintPage(begin, begin + 8192, kRows));
  }
  TableStats stats = builder.Build();
  EXPECT_EQ(stats.row_count, kRows);
  auto ndv = static_cast<double>(stats.columns.at("id").distinct_values);
  EXPECT_NEAR(ndv, static_cast<double>(kRows), 0.07 * kRows);
  EXPECT_LE(stats.columns.at("id").distinct_values, kRows);
  EXPECT_EQ(stats.columns.at("id").min, Value::Bigint(0));
  EXPECT_EQ(stats.columns.at("id").max, Value::Bigint(kRows - 1));
}

TEST(ColumnStatsBuilderTest, MergeEqualsBuildOfUnion) {
  RowSchema schema = BigintSchema({"id", "k"});
  // Overlapping halves: id is large (sketch only), k small (exact set).
  std::vector<Page> a = {BigintPage(0, 6000, 700), BigintPage(6000, 9000, 700)};
  std::vector<Page> b = {BigintPage(5000, 12000, 300)};
  ColumnStatsBuilder left(schema), right(schema), both(schema);
  for (const auto& p : a) left.Add(p);
  for (const auto& p : b) right.Add(p);
  for (const auto& p : a) both.Add(p);
  for (const auto& p : b) both.Add(p);

  ColumnStatsBuilder merged(schema);
  merged.Merge(left);
  merged.Merge(right);
  EXPECT_EQ(merged.row_count(), both.row_count());
  for (size_t c = 0; c < schema.size(); ++c) {
    EXPECT_EQ(merged.distinct_sketch(c).registers(),
              both.distinct_sketch(c).registers());
  }
  ExpectSameStats(merged.Build(), both.Build());
  // Merge order does not matter.
  ColumnStatsBuilder reversed(schema);
  reversed.Merge(right);
  reversed.Merge(left);
  ExpectSameStats(reversed.Build(), both.Build());
  EXPECT_EQ(both.Build().columns.at("k").distinct_values, 700);
}

TEST(ColumnStatsBuilderTest, NullsAndMinMaxPerType) {
  RowSchema schema;
  schema.Add("b", TypeKind::kBigint);
  schema.Add("d", TypeKind::kDouble);
  schema.Add("v", TypeKind::kVarchar);
  schema.Add("dt", TypeKind::kDate);
  schema.Add("bo", TypeKind::kBoolean);
  schema.Add("none", TypeKind::kBigint);
  ColumnStatsBuilder builder(schema);
  builder.Add(Page({MakeBigintBlock({5, -3, 0, 12}, {0, 0, 1, 0}),
                    MakeDoubleBlock({1.5, -2.25, 0.0, 9.0}, {1, 0, 0, 0}),
                    MakeVarcharBlock({"pear", "apple", "zoo", ""},
                                     {0, 0, 0, 1}),
                    MakeDateBlock({9000, 8000, 10000, 7000}, {0, 0, 0, 0}),
                    MakeBooleanBlock({true, true, false, true}, {0, 1, 0, 0}),
                    MakeAllNullBlock(TypeKind::kBigint, 4)}));
  // A second page in other encodings: dictionary and constant (RLE).
  builder.Add(Page(
      {std::make_shared<DictionaryBlock>(MakeBigintBlock({40, -7}),
                                         std::vector<int32_t>{0, 1, 1}),
       MakeConstantBlock(Value::Double(-5.0), 3),
       MakeConstantBlock(Value::Varchar("banana"), 3),
       MakeConstantBlock(Value::Null(TypeKind::kDate), 3),
       MakeConstantBlock(Value::Boolean(true), 3),
       MakeAllNullBlock(TypeKind::kBigint, 3)}));
  TableStats stats = builder.Build();
  ASSERT_EQ(stats.row_count, 7);
  const auto& b = stats.columns.at("b");
  EXPECT_EQ(b.min, Value::Bigint(-7));
  EXPECT_EQ(b.max, Value::Bigint(40));
  EXPECT_EQ(b.distinct_values, 5);  // 5, -3, 12, 40, -7
  EXPECT_DOUBLE_EQ(b.null_fraction, 1.0 / 7.0);
  const auto& d = stats.columns.at("d");
  EXPECT_EQ(d.min, Value::Double(-5.0));
  EXPECT_EQ(d.max, Value::Double(9.0));
  EXPECT_EQ(d.distinct_values, 4);  // -2.25, 0, 9, -5
  EXPECT_DOUBLE_EQ(d.null_fraction, 1.0 / 7.0);
  const auto& v = stats.columns.at("v");
  EXPECT_EQ(v.min, Value::Varchar("apple"));
  EXPECT_EQ(v.max, Value::Varchar("zoo"));
  EXPECT_EQ(v.distinct_values, 4);
  const auto& dt = stats.columns.at("dt");
  EXPECT_EQ(dt.min, Value::Date(7000));
  EXPECT_EQ(dt.max, Value::Date(10000));
  EXPECT_DOUBLE_EQ(dt.null_fraction, 3.0 / 7.0);
  const auto& bo = stats.columns.at("bo");
  EXPECT_EQ(bo.min, Value::Boolean(false));
  EXPECT_EQ(bo.max, Value::Boolean(true));
  EXPECT_EQ(bo.distinct_values, 2);
  EXPECT_DOUBLE_EQ(bo.null_fraction, 1.0 / 7.0);
  const auto& none = stats.columns.at("none");
  EXPECT_TRUE(none.min.is_null());
  EXPECT_TRUE(none.max.is_null());
  EXPECT_EQ(none.distinct_values, 0);
  EXPECT_DOUBLE_EQ(none.null_fraction, 1.0);
}

TEST(ColumnStatsBuilderTest, EmptyTableHasZeroRows) {
  TableStats stats = ColumnStatsBuilder(BigintSchema({"k"})).Build();
  EXPECT_TRUE(stats.valid());
  EXPECT_EQ(stats.row_count, 0);
  EXPECT_EQ(stats.columns.at("k").distinct_values, 0);
  EXPECT_DOUBLE_EQ(stats.columns.at("k").null_fraction, 0.0);
}

// ---- the connectors that feed it ----

TEST(ConnectorStatsTest, MemoryStatsFollowInsertAndCtas) {
  auto memory = std::make_shared<MemoryConnector>("memory");
  RowSchema schema = BigintSchema({"id", "k"});
  ASSERT_TRUE(
      memory->CreateTable("t", schema, {BigintPage(0, 3000, 40)}).ok());
  EngineOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executor.threads = 2;
  PrestoEngine engine(options);
  engine.catalog().Register(memory);
  engine.catalog().SetDefault("memory");

  auto stats_of = [&](const std::string& table) {
    auto handle = memory->metadata().GetTable(table);
    EXPECT_TRUE(handle.ok());
    auto stats = memory->metadata().GetStats(**handle);
    EXPECT_TRUE(stats.ok());
    return *stats;
  };
  auto from_scratch = [&](const std::string& table) {
    auto pages = memory->GetPages(table);
    EXPECT_TRUE(pages.ok());
    return BuildFrom(schema, *pages);
  };
  ExpectSameStats(stats_of("t"), from_scratch("t"));

  ASSERT_TRUE(engine.ExecuteAndFetch("INSERT INTO t SELECT id + 5000, k * 3 "
                                     "FROM t WHERE k < 10")
                  .ok());
  TableStats after_insert = stats_of("t");
  ExpectSameStats(after_insert, from_scratch("t"));
  EXPECT_EQ(after_insert.row_count, 3000 + 750);
  EXPECT_EQ(after_insert.columns.at("k").max, Value::Bigint(39));
  EXPECT_EQ(after_insert.columns.at("id").max, Value::Bigint(7969));

  ASSERT_TRUE(engine
                  .ExecuteAndFetch("CREATE TABLE memory.u AS SELECT id, k "
                                   "FROM t WHERE k >= 20")
                  .ok());
  TableStats ctas = stats_of("u");
  ExpectSameStats(ctas, from_scratch("u"));
  // k in 20..39, plus the inserted k*3 in {21, 24, 27}.
  EXPECT_EQ(ctas.row_count, 1500 + 225);
  EXPECT_EQ(ctas.columns.at("k").distinct_values, 20);
}

TEST(ConnectorStatsTest, RaptorStatsMatchLoadedRows) {
  RowSchema schema = BigintSchema({"id", "k"});
  std::vector<Page> pages = {BigintPage(0, 4000, 33),
                             BigintPage(4000, 5000, 7)};
  RaptorConnector raptor;
  ASSERT_TRUE(raptor.CreateTable("r", schema, "k", 4).ok());
  ASSERT_TRUE(raptor.LoadTable("r", pages).ok());
  auto handle = raptor.metadata().GetTable("r");
  ASSERT_TRUE(handle.ok());
  auto stats = raptor.metadata().GetStats(**handle);
  ASSERT_TRUE(stats.ok());
  ExpectSameStats(*stats, BuildFrom(schema, pages));
  EXPECT_EQ(stats->columns.at("k").distinct_values, 33);
}

// Regression: LoadTable appended rows to the shards but replaced the
// table's statistics with those of the last batch, and never set
// null_fraction.
TEST(ConnectorStatsTest, ShardedStoreStatsAccumulateAcrossLoads) {
  RowSchema schema = BigintSchema({"id", "k"});
  ShardedStoreConnector store("mysql", ShardedStoreConfig{4, 0});
  ASSERT_TRUE(store.CreateTable("t", schema, "id", {}).ok());
  Page first = BigintPage(0, 300, 10);
  // The second batch has 50 NULL keys among its 200 rows.
  std::vector<int64_t> ids, keys;
  std::vector<uint8_t> nulls;
  for (int64_t i = 300; i < 500; ++i) {
    ids.push_back(i);
    keys.push_back(i % 20);
    nulls.push_back(i % 4 == 0 ? 1 : 0);
  }
  Page second({MakeBigintBlock(ids), MakeBigintBlock(keys, nulls)});
  ASSERT_TRUE(store.LoadTable("t", {first}).ok());
  ASSERT_TRUE(store.LoadTable("t", {second}).ok());

  auto handle = store.metadata().GetTable("t");
  ASSERT_TRUE(handle.ok());
  auto stats = store.metadata().GetStats(**handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 500);
  EXPECT_DOUBLE_EQ(stats->columns.at("k").null_fraction, 50.0 / 500.0);
  EXPECT_DOUBLE_EQ(stats->columns.at("id").null_fraction, 0.0);
  EXPECT_EQ(stats->columns.at("id").min, Value::Bigint(0));
  EXPECT_EQ(stats->columns.at("id").max, Value::Bigint(499));
  ExpectSameStats(*stats, BuildFrom(schema, {first, second}));
}

TEST(ConnectorStatsTest, HiveAnalyzeMergesFileSketches) {
  HiveConfig config;
  config.dfs = {0, 0, 0};
  config.file_rows = 1000;  // several files per load
  HiveConnector hive("hive", config);
  RowSchema schema = BigintSchema({"id", "k"});
  std::vector<Page> pages = {BigintPage(0, 2500, 90),
                             BigintPage(2500, 4000, 60)};
  ASSERT_TRUE(hive.CreateTable("t", schema).ok());
  ASSERT_TRUE(hive.LoadTable("t", pages).ok());
  auto handle = hive.metadata().GetTable("t");
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(hive.metadata().GetStats(**handle)->valid());

  int64_t reads_before = hive.dfs().total_reads();
  ASSERT_TRUE(hive.AnalyzeTable("t").ok());
  EXPECT_EQ(hive.dfs().total_reads(), reads_before) << "ANALYZE rescanned";
  auto stats = hive.metadata().GetStats(**handle);
  ASSERT_TRUE(stats.ok());
  ExpectSameStats(*stats, BuildFrom(schema, pages));
  EXPECT_EQ(stats->columns.at("k").distinct_values, 90);
}

// The Fig. 6 with-stats configuration (hive after ANALYZE) must keep the
// join orders and distributions the full-scan statistics produced. Each
// entry lists, in EXPLAIN order, every join distribution and scanned table.
TEST(ConnectorStatsTest, Fig6WithStatsJoinOrderUnchanged) {
  auto tpch = std::make_shared<TpchConnector>("tpch", 0.2);
  auto hive = std::make_shared<HiveConnector>("hive");
  for (const char* table :
       {"lineitem", "orders", "customer", "supplier", "part", "nation"}) {
    auto pages = ReadAllPages(tpch.get(), table);
    ASSERT_TRUE(pages.ok()) << pages.status().ToString();
    ASSERT_TRUE(
        hive->CreateTable(table, (*tpch->metadata().GetTable(table))->schema())
            .ok());
    ASSERT_TRUE(hive->LoadTable(table, *pages).ok());
    ASSERT_TRUE(hive->AnalyzeTable(table).ok());
  }
  EngineOptions options;
  options.cluster.num_workers = 4;
  options.cluster.executor.threads = 2;
  PrestoEngine engine(options);
  engine.catalog().Register(hive);

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT shipmode, sum(CASE WHEN orderpriority = '1-URGENT' THEN 1 "
       "ELSE 0 END) FROM hive.lineitem l JOIN hive.orders o ON l.orderkey = "
       "o.orderkey GROUP BY shipmode",
       "broadcast lineitem orders"},
      {"SELECT n.name, count(*) FROM hive.lineitem l JOIN hive.orders o ON "
       "l.orderkey = o.orderkey JOIN hive.customer c ON o.custkey = "
       "c.custkey JOIN hive.nation n ON c.nationkey = n.nationkey GROUP BY "
       "n.name",
       "broadcast lineitem broadcast orders broadcast customer nation"},
      {"SELECT c.mktsegment, sum(o.totalprice) FROM hive.orders o JOIN "
       "hive.customer c ON o.custkey = c.custkey GROUP BY c.mktsegment",
       "broadcast orders customer"},
      {"SELECT s.name, count(*) FROM hive.lineitem l JOIN hive.supplier s ON "
       "l.suppkey = s.suppkey GROUP BY s.name ORDER BY 2 DESC LIMIT 10",
       "broadcast lineitem supplier"},
      {"SELECT n.name, avg(c.acctbal) FROM hive.customer c JOIN hive.nation "
       "n ON c.nationkey = n.nationkey GROUP BY n.name",
       "broadcast customer nation"},
      {"SELECT count(*) FROM hive.lineitem l JOIN hive.part p ON l.partkey = "
       "p.partkey WHERE p.brand = 'Brand#23'",
       "broadcast lineitem part"},
      {"SELECT c.mktsegment, n.name, count(*) FROM hive.orders o JOIN "
       "hive.customer c ON o.custkey = c.custkey JOIN hive.nation n ON "
       "c.nationkey = n.nationkey WHERE o.totalprice > 100000 GROUP BY "
       "c.mktsegment, n.name",
       "broadcast orders broadcast customer nation"},
  };
  const std::regex token(R"(dist=([a-z]+)|TableScan\[hive\.([a-z]+)\])");
  for (const auto& [sql, expected] : cases) {
    SCOPED_TRACE(sql);
    auto plan = engine.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string order;
    for (std::sregex_iterator it(plan->begin(), plan->end(), token), end;
         it != end; ++it) {
      if (!order.empty()) order += ' ';
      order += (*it)[1].matched ? (*it)[1].str() : (*it)[2].str();
    }
    EXPECT_EQ(order, expected);
  }
}

}  // namespace
}  // namespace presto
