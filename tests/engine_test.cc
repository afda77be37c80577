#include <gtest/gtest.h>

#include "connectors/memcon/memory_connector.h"
#include "engine/engine.h"
#include "engine/reference_executor.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace presto {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.cluster.num_workers = 3;
    options.cluster.executor.threads = 2;
    engine_ = std::make_unique<PrestoEngine>(options);
    auto mem = std::make_shared<MemoryConnector>("memory");
    mem_ = mem.get();

    // orders(orderkey, custkey, total, status), 2000 rows in 4 pages.
    RowSchema orders;
    orders.Add("orderkey", TypeKind::kBigint);
    orders.Add("custkey", TypeKind::kBigint);
    orders.Add("total", TypeKind::kDouble);
    orders.Add("status", TypeKind::kVarchar);
    std::vector<Page> order_pages;
    for (int p = 0; p < 4; ++p) {
      std::vector<int64_t> ok, ck;
      std::vector<double> tot;
      std::vector<std::string> st;
      for (int64_t i = 0; i < 500; ++i) {
        int64_t id = p * 500 + i;
        ok.push_back(id);
        ck.push_back(id % 100);
        tot.push_back(static_cast<double>(id % 250) * 2.0);
        st.push_back(id % 3 == 0 ? "O" : (id % 3 == 1 ? "F" : "P"));
      }
      order_pages.push_back(Page({MakeBigintBlock(ok), MakeBigintBlock(ck),
                                  MakeDoubleBlock(tot),
                                  MakeVarcharBlock(st)}));
    }
    ASSERT_TRUE(mem->CreateTable("orders", orders,
                                 std::move(order_pages)).ok());

    // lineitem(orderkey, qty, price, discount), 6000 rows.
    RowSchema lineitem;
    lineitem.Add("orderkey", TypeKind::kBigint);
    lineitem.Add("qty", TypeKind::kBigint);
    lineitem.Add("price", TypeKind::kDouble);
    lineitem.Add("discount", TypeKind::kDouble);
    std::vector<Page> li_pages;
    for (int p = 0; p < 6; ++p) {
      std::vector<int64_t> ok, qty;
      std::vector<double> price, disc;
      for (int64_t i = 0; i < 1000; ++i) {
        int64_t id = p * 1000 + i;
        ok.push_back(id % 2000);
        qty.push_back(id % 50 + 1);
        price.push_back(static_cast<double>(id % 97) + 0.5);
        disc.push_back(id % 10 == 0 ? 0.0 : 0.05);
      }
      li_pages.push_back(Page({MakeBigintBlock(ok), MakeBigintBlock(qty),
                               MakeDoubleBlock(price),
                               MakeDoubleBlock(disc)}));
    }
    ASSERT_TRUE(
        mem->CreateTable("lineitem", lineitem, std::move(li_pages)).ok());

    // nation(nationkey, name): tiny dimension.
    RowSchema nation;
    nation.Add("nationkey", TypeKind::kBigint);
    nation.Add("name", TypeKind::kVarchar);
    ASSERT_TRUE(mem->CreateTable(
                       "nation", nation,
                       {Page({MakeBigintBlock({0, 1, 2, 3}),
                              MakeVarcharBlock(
                                  {"us", "fr", "jp", "de"})})})
                    .ok());
    engine_->catalog().Register(mem);
  }

  // Runs through the distributed engine and the reference executor and
  // compares row multisets.
  void CheckAgainstReference(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto engine_rows = engine_->ExecuteAndFetch(sql);
    ASSERT_TRUE(engine_rows.ok()) << engine_rows.status().ToString();
    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok());
    Planner planner(&engine_->catalog());
    auto plan = planner.Plan(**stmt);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto reference = ExecuteReference(engine_->catalog(), *plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(SameRowsIgnoringOrder(*engine_rows, *reference))
        << "engine returned " << engine_rows->size()
        << " rows, reference " << reference->size();
  }

  std::unique_ptr<PrestoEngine> engine_;
  MemoryConnector* mem_ = nullptr;
};

TEST_F(EngineTest, SelectLiteral) {
  auto rows = engine_->ExecuteAndFetch("SELECT 1 + 2 AS x, 'hi' AS s");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Bigint(3));
  EXPECT_EQ((*rows)[0][1], Value::Varchar("hi"));
}

TEST_F(EngineTest, ScanAndFilter) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT orderkey FROM orders WHERE orderkey < 5");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(EngineTest, CountStar) {
  auto rows = engine_->ExecuteAndFetch("SELECT count(*) FROM orders");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Bigint(2000));
}

TEST_F(EngineTest, GroupByAggregation) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT status, count(*), sum(total) FROM orders GROUP BY status");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  int64_t total = 0;
  for (const auto& row : *rows) total += row[1].AsBigint();
  EXPECT_EQ(total, 2000);
}

TEST_F(EngineTest, JoinSmallDimension) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT n.name, count(*) FROM orders o "
      "JOIN nation n ON o.custkey % 4 = n.nationkey "
      "GROUP BY n.name");
  // The modulo in the join condition is a residual, not equi — this should
  // still run (inner join with residual) or error clearly.
  if (rows.ok()) {
    EXPECT_LE(rows->size(), 4u);
  }
}

TEST_F(EngineTest, EquiJoin) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Bigint(6000));
}

TEST_F(EngineTest, OrderByLimit) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT orderkey FROM orders ORDER BY orderkey DESC LIMIT 3");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0], Value::Bigint(1999));
  EXPECT_EQ((*rows)[2][0], Value::Bigint(1997));
}

TEST_F(EngineTest, DifferentialSuite) {
  CheckAgainstReference("SELECT custkey, sum(total) FROM orders GROUP BY custkey");
  CheckAgainstReference(
      "SELECT status, avg(total), min(orderkey), max(orderkey) "
      "FROM orders WHERE total > 100 GROUP BY status");
  CheckAgainstReference(
      "SELECT o.status, count(*) FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey WHERE l.qty > 25 GROUP BY o.status");
  CheckAgainstReference("SELECT DISTINCT status FROM orders");
  CheckAgainstReference(
      "SELECT orderkey, total FROM orders ORDER BY total DESC, orderkey "
      "LIMIT 20");
  CheckAgainstReference(
      "SELECT custkey FROM orders WHERE status = 'O' "
      "UNION ALL SELECT custkey FROM orders WHERE status = 'F'");
  CheckAgainstReference(
      "SELECT l.orderkey, sum(l.price * (1 - l.discount)) "
      "FROM lineitem l GROUP BY l.orderkey HAVING sum(l.qty) > 60");
  CheckAgainstReference(
      "SELECT o.orderkey, n.name FROM orders o "
      "LEFT JOIN nation n ON o.custkey = n.nationkey "
      "WHERE o.orderkey < 50");
  CheckAgainstReference("SELECT count(DISTINCT custkey) FROM orders");
  CheckAgainstReference(
      "SELECT CASE WHEN total > 250 THEN 'big' ELSE 'small' END, count(*) "
      "FROM orders GROUP BY 1");
}

TEST_F(EngineTest, ExplainProducesFragments) {
  auto text = engine_->Explain(
      "SELECT custkey, sum(total) FROM orders GROUP BY custkey");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Fragment 0"), std::string::npos);
  EXPECT_NE(text->find("Aggregate(Partial)"), std::string::npos);
  EXPECT_NE(text->find("Aggregate(Final)"), std::string::npos);
  EXPECT_NE(text->find("RemoteSource"), std::string::npos);
}

TEST_F(EngineTest, CreateTableAsAndReadBack) {
  auto write = engine_->ExecuteAndFetch(
      "CREATE TABLE memory.big_orders AS "
      "SELECT orderkey, total FROM orders WHERE total > 400");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  ASSERT_EQ(write->size(), 1u);
  int64_t written = (*write)[0][0].AsBigint();
  EXPECT_GT(written, 0);
  auto rows = engine_->ExecuteAndFetch("SELECT count(*) FROM big_orders");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0], Value::Bigint(written));
}

TEST_F(EngineTest, InsertAppends) {
  ASSERT_TRUE(engine_->ExecuteAndFetch(
                  "CREATE TABLE memory.sink AS SELECT orderkey FROM orders "
                  "WHERE orderkey < 10")
                  .ok());
  auto ins = engine_->ExecuteAndFetch(
      "INSERT INTO sink SELECT orderkey FROM orders WHERE orderkey "
      "BETWEEN 100 AND 104");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto rows = engine_->ExecuteAndFetch("SELECT count(*) FROM sink");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0], Value::Bigint(15));
}

TEST_F(EngineTest, ErrorsPropagate) {
  EXPECT_FALSE(engine_->ExecuteAndFetch("SELECT * FROM nope").ok());
  EXPECT_FALSE(engine_->ExecuteAndFetch("SELECT bogus FROM orders").ok());
  EXPECT_FALSE(engine_->ExecuteAndFetch("SELEKT 1").ok());
}

TEST_F(EngineTest, WindowFunctions) {
  auto rows = engine_->ExecuteAndFetch(
      "SELECT orderkey, row_number() OVER (PARTITION BY status "
      "ORDER BY total DESC) AS rn FROM orders WHERE orderkey < 30");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 30u);
  // Each partition's rn starts at 1.
  int64_t ones = 0;
  for (const auto& row : *rows) {
    if (row[1].AsBigint() == 1) ++ones;
  }
  EXPECT_GE(ones, 1);
  EXPECT_LE(ones, 3);
}

TEST_F(EngineTest, EarlyLimitCancelsUpstream) {
  auto result = engine_->Execute("SELECT orderkey FROM orders LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->FetchAllRows();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
}

// INT64_MIN / -1 and INT64_MIN % -1 used to kill the process with SIGFPE:
// in execution, and for a constant in planning, where constant folding
// calls the row form. Now `/` fails the query and `%` returns 0.
TEST(EngineArithmeticTest, BigintDivisionOverflowIsAQueryError) {
  for (EvalMode mode : {EvalMode::kCompiled, EvalMode::kInterpreted}) {
    SCOPED_TRACE(mode == EvalMode::kCompiled ? "compiled" : "interpreted");
    EngineOptions options;
    options.cluster.num_workers = 2;
    options.cluster.executor.threads = 2;
    options.cluster.eval_mode = mode;
    PrestoEngine engine(options);
    auto mem = std::make_shared<MemoryConnector>("memory");
    RowSchema schema;
    schema.Add("y", TypeKind::kBigint);
    ASSERT_TRUE(
        mem->CreateTable("t", schema, {Page({MakeBigintBlock({1, 2, 3, 4})})})
            .ok());
    engine.catalog().Register(mem);

    for (const char* sql :
         {"SELECT min((0 - 9223372036854775807 - 1) / (y - y - 1)) FROM t "
          "WHERE y = 3",
          "SELECT (0 - 9223372036854775807 - 1) / -1"}) {
      auto rows = engine.ExecuteAndFetch(sql);
      ASSERT_FALSE(rows.ok()) << sql;
      EXPECT_NE(rows.status().message().find("bigint division overflow"),
                std::string::npos)
          << rows.status().ToString();
    }
    auto rows = engine.ExecuteAndFetch(
        "SELECT min((0 - 9223372036854775807 - 1) % (y - y - 1)) FROM t "
        "WHERE y = 3");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0], Value::Bigint(0));
  }
}

// BIGINT +, -, * and unary - used to wrap silently; the overflow now fails
// the query in execution and leaves a constant unfolded (so it fails when
// executed), in both evaluation modes.
TEST(EngineArithmeticTest, BigintOverflowIsAQueryError) {
  for (EvalMode mode : {EvalMode::kCompiled, EvalMode::kInterpreted}) {
    SCOPED_TRACE(mode == EvalMode::kCompiled ? "compiled" : "interpreted");
    EngineOptions options;
    options.cluster.num_workers = 2;
    options.cluster.executor.threads = 2;
    options.cluster.eval_mode = mode;
    PrestoEngine engine(options);
    auto mem = std::make_shared<MemoryConnector>("memory");
    RowSchema schema;
    schema.Add("y", TypeKind::kBigint);
    ASSERT_TRUE(
        mem->CreateTable("t", schema, {Page({MakeBigintBlock({1, 2, 3, 4})})})
            .ok());
    engine.catalog().Register(mem);

    struct Case {
      const char* sql;
      const char* message;
    };
    for (const Case& c :
         {Case{"SELECT max(y + 9223372036854775807) FROM t",
               "bigint addition overflow"},
          Case{"SELECT min((0 - 9223372036854775807) - y) FROM t",
               "bigint subtraction overflow"},
          Case{"SELECT max(y * 4611686018427387904) FROM t",
               "bigint multiplication overflow"},
          Case{"SELECT min(-(0 - 9223372036854775807 - y)) FROM t "
               "WHERE y = 1",
               "bigint negation overflow"},
          Case{"SELECT 9223372036854775807 + 1", "bigint addition overflow"}}) {
      auto rows = engine.ExecuteAndFetch(c.sql);
      ASSERT_FALSE(rows.ok()) << c.sql;
      EXPECT_NE(rows.status().message().find(c.message), std::string::npos)
          << c.sql << ": " << rows.status().ToString();
    }
    auto rows = engine.ExecuteAndFetch(
        "SELECT max(y + 9223372036854775803) FROM t");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0], Value::Bigint(9223372036854775807));
  }
}

}  // namespace
}  // namespace presto
