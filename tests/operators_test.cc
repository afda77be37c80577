#include <gtest/gtest.h>

#include "exec/driver.h"
#include "exec/operators.h"
#include "expr/function_registry.h"

namespace presto {
namespace {

// Minimal contexts: no memory accounting, no cluster services.
std::unique_ptr<OperatorContext> Ctx(const char* label = "op") {
  return std::make_unique<OperatorContext>(TaskRuntime{}, TaskSpec{}, label);
}

ExprPtr Col(int i, TypeKind t) { return Expr::MakeColumn(i, t); }
ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }
ExprPtr Call(const std::string& name, std::vector<ExprPtr> args) {
  std::vector<TypeKind> types;
  for (const auto& a : args) types.push_back(a->type());
  auto fn = FunctionRegistry::Instance().Resolve(name, types);
  EXPECT_TRUE(fn.ok());
  return Expr::MakeCall(*fn, std::move(args));
}

// Drains all output pages from an operator after feeding inputs.
Result<std::vector<Page>> Drain(Operator* op) {
  std::vector<Page> out;
  for (int spin = 0; spin < 10000 && !op->IsFinished(); ++spin) {
    PRESTO_ASSIGN_OR_RETURN(std::optional<Page> page, op->GetOutput());
    if (page.has_value()) out.push_back(std::move(*page));
  }
  return out;
}

// ---- aggregation operator ----

std::shared_ptr<const AggregateNode> MakeAggNode(
    AggregationStep step, std::vector<int> keys,
    std::vector<AggregateCall> calls, RowSchema output, RowSchema input) {
  auto values = std::make_shared<ValuesNode>(
      0, std::move(input), std::vector<std::vector<Value>>{});
  return std::make_shared<AggregateNode>(1, step, std::move(keys),
                                         std::move(calls), std::move(output),
                                         values);
}

TEST(HashAggregationOperatorTest, SingleStepGroupBy) {
  RowSchema input;
  input.Add("k", TypeKind::kBigint);
  input.Add("v", TypeKind::kBigint);
  RowSchema output;
  output.Add("k", TypeKind::kBigint);
  output.Add("sum", TypeKind::kBigint);
  auto sig = *ResolveAggregate("sum", TypeKind::kBigint, false);
  auto node = MakeAggNode(AggregationStep::kSingle, {0}, {{sig, 1, "sum"}},
                          output, input);
  HashAggregationOperator op(Ctx(), node);
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({1, 2, 1}),
                                MakeBigintBlock({10, 20, 30})}))
                  .ok());
  ASSERT_TRUE(
      op.AddInput(Page({MakeBigintBlock({2}), MakeBigintBlock({5})})).ok());
  op.NoMoreInput();
  auto pages = Drain(&op);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 1u);
  const Page& page = (*pages)[0];
  EXPECT_EQ(page.num_rows(), 2);
  // Group 1 -> 40, group 2 -> 25 (insertion order).
  EXPECT_EQ(page.block(0)->GetValue(0), Value::Bigint(1));
  EXPECT_EQ(page.block(1)->GetValue(0), Value::Bigint(40));
  EXPECT_EQ(page.block(1)->GetValue(1), Value::Bigint(25));
}

TEST(HashAggregationOperatorTest, GlobalAggregateEmptyInput) {
  RowSchema input;
  input.Add("v", TypeKind::kBigint);
  RowSchema output;
  output.Add("count", TypeKind::kBigint);
  auto sig = *ResolveAggregate("count", std::nullopt, false);
  auto node = MakeAggNode(AggregationStep::kSingle, {}, {{sig, -1, "count"}},
                          output, input);
  HashAggregationOperator op(Ctx(), node);
  op.NoMoreInput();
  auto pages = Drain(&op);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 1u);
  EXPECT_EQ((*pages)[0].block(0)->GetValue(0), Value::Bigint(0));
}

TEST(HashAggregationOperatorTest, PartialFinalRoundTrip) {
  RowSchema input;
  input.Add("k", TypeKind::kBigint);
  input.Add("v", TypeKind::kBigint);
  auto sig = *ResolveAggregate("avg", TypeKind::kBigint, false);
  RowSchema partial_out;
  partial_out.Add("k", TypeKind::kBigint);
  partial_out.Add("avg", sig.intermediate_type);
  auto partial_node = MakeAggNode(AggregationStep::kPartial, {0},
                                  {{sig, 1, "avg"}}, partial_out, input);
  HashAggregationOperator partial(Ctx(), partial_node);
  ASSERT_TRUE(partial
                  .AddInput(Page({MakeBigintBlock({7, 7, 8}),
                                  MakeBigintBlock({2, 4, 10})}))
                  .ok());
  partial.NoMoreInput();
  auto partial_pages = Drain(&partial);
  ASSERT_TRUE(partial_pages.ok());
  ASSERT_EQ(partial_pages->size(), 1u);

  RowSchema final_out;
  final_out.Add("k", TypeKind::kBigint);
  final_out.Add("avg", TypeKind::kDouble);
  auto final_node = MakeAggNode(AggregationStep::kFinal, {0},
                                {{sig, 1, "avg"}}, final_out, partial_out);
  HashAggregationOperator final_op(Ctx(), final_node);
  ASSERT_TRUE(final_op.AddInput((*partial_pages)[0]).ok());
  final_op.NoMoreInput();
  auto final_pages = Drain(&final_op);
  ASSERT_TRUE(final_pages.ok());
  const Page& page = (*final_pages)[0];
  ASSERT_EQ(page.num_rows(), 2);
  EXPECT_NEAR(page.block(1)->GetValue(0).AsDouble(), 3.0, 1e-9);
  EXPECT_NEAR(page.block(1)->GetValue(1).AsDouble(), 10.0, 1e-9);
}

// ---- join operators ----

struct JoinFixture {
  std::shared_ptr<const JoinNode> node;
  std::shared_ptr<JoinBridge> bridge;

  JoinFixture(sql::JoinType type, bool with_residual = false) {
    RowSchema left;
    left.Add("lk", TypeKind::kBigint);
    left.Add("lv", TypeKind::kVarchar);
    RowSchema right;
    right.Add("rk", TypeKind::kBigint);
    right.Add("rv", TypeKind::kBigint);
    RowSchema out;
    out.Add("lk", TypeKind::kBigint);
    out.Add("lv", TypeKind::kVarchar);
    out.Add("rk", TypeKind::kBigint);
    out.Add("rv", TypeKind::kBigint);
    auto lvals = std::make_shared<ValuesNode>(
        0, left, std::vector<std::vector<Value>>{});
    auto rvals = std::make_shared<ValuesNode>(
        1, right, std::vector<std::vector<Value>>{});
    ExprPtr residual;
    if (with_residual) {
      // rv > 10
      residual = Call("gt", {Col(3, TypeKind::kBigint),
                             Lit(Value::Bigint(10))});
    }
    node = std::make_shared<JoinNode>(
        2, type, std::vector<int>{0}, std::vector<int>{0}, residual,
        JoinDistribution::kPartitioned, out, lvals, rvals);
    bridge = std::make_shared<JoinBridge>();
  }

  void Build(bool track_matched) {
    HashBuildOperator build(
        std::make_unique<OperatorContext>(TaskRuntime{}, TaskSpec{}, "build"),
        bridge, std::vector<TypeKind>{TypeKind::kBigint, TypeKind::kBigint},
        std::vector<int>{0}, track_matched);
    // rk: 1, 2, 2, null; rv: 5, 20, 30, 40
    EXPECT_TRUE(build
                    .AddInput(Page({MakeBigintBlock({1, 2, 2, 0},
                                                    {0, 0, 0, 1}),
                                    MakeBigintBlock({5, 20, 30, 40})}))
                    .ok());
    build.NoMoreInput();
    EXPECT_TRUE(bridge->ready.load());
  }
};

Page ProbePage() {
  // lk: 1, 2, 3, null
  return Page({MakeBigintBlock({1, 2, 3, 0}, {0, 0, 0, 1}),
               MakeVarcharBlock({"a", "b", "c", "d"})});
}

TEST(HashJoinTest, InnerJoin) {
  JoinFixture fixture(sql::JoinType::kInner);
  fixture.Build(false);
  HashProbeOperator probe(Ctx(), fixture.node, fixture.bridge, false);
  ASSERT_TRUE(probe.AddInput(ProbePage()).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  int64_t rows = 0;
  for (const auto& p : *pages) rows += p.num_rows();
  EXPECT_EQ(rows, 3);  // 1->(5), 2->(20,30)
}

TEST(HashJoinTest, LeftJoinEmitsNullsForUnmatched) {
  JoinFixture fixture(sql::JoinType::kLeft);
  fixture.Build(false);
  HashProbeOperator probe(Ctx(), fixture.node, fixture.bridge, false);
  ASSERT_TRUE(probe.AddInput(ProbePage()).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  int64_t rows = 0;
  int64_t null_right = 0;
  for (const auto& p : *pages) {
    rows += p.num_rows();
    for (int64_t r = 0; r < p.num_rows(); ++r) {
      if (p.block(3)->IsNull(r)) ++null_right;
    }
  }
  EXPECT_EQ(rows, 5);        // 3 matches + probe rows 3 and null
  EXPECT_EQ(null_right, 2);  // lk=3 and lk=null preserved with null rv
}

TEST(HashJoinTest, RightJoinEmitsUnmatchedBuildRows) {
  JoinFixture fixture(sql::JoinType::kRight);
  fixture.Build(true);
  HashProbeOperator probe(Ctx(), fixture.node, fixture.bridge, true);
  ASSERT_TRUE(probe.AddInput(ProbePage()).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  int64_t rows = 0;
  int64_t null_left = 0;
  for (const auto& p : *pages) {
    rows += p.num_rows();
    for (int64_t r = 0; r < p.num_rows(); ++r) {
      if (p.block(0)->IsNull(r)) ++null_left;
    }
  }
  EXPECT_EQ(rows, 4);       // 3 matches + unmatched build (rv=40, null key)
  EXPECT_EQ(null_left, 1);
}

TEST(HashJoinTest, CrossJoin) {
  RowSchema left;
  left.Add("l", TypeKind::kBigint);
  RowSchema right;
  right.Add("r", TypeKind::kBigint);
  RowSchema out;
  out.Add("l", TypeKind::kBigint);
  out.Add("r", TypeKind::kBigint);
  auto lvals =
      std::make_shared<ValuesNode>(0, left, std::vector<std::vector<Value>>{});
  auto rvals = std::make_shared<ValuesNode>(
      1, right, std::vector<std::vector<Value>>{});
  auto node = std::make_shared<JoinNode>(
      2, sql::JoinType::kCross, std::vector<int>{}, std::vector<int>{},
      nullptr, JoinDistribution::kBroadcast, out, lvals, rvals);
  auto bridge = std::make_shared<JoinBridge>();
  HashBuildOperator build(Ctx(), bridge, {TypeKind::kBigint}, {}, false);
  ASSERT_TRUE(build.AddInput(Page({MakeBigintBlock({10, 20})})).ok());
  build.NoMoreInput();
  HashProbeOperator probe(Ctx(), node, bridge, false);
  ASSERT_TRUE(probe.AddInput(Page({MakeBigintBlock({1, 2, 3})})).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  int64_t rows = 0;
  for (const auto& p : *pages) rows += p.num_rows();
  EXPECT_EQ(rows, 6);
}

TEST(HashJoinTest, ResidualFilterOnInnerJoin) {
  JoinFixture fixture(sql::JoinType::kInner, /*with_residual=*/true);
  fixture.Build(false);
  HashProbeOperator probe(Ctx(), fixture.node, fixture.bridge, false);
  ASSERT_TRUE(probe.AddInput(ProbePage()).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  int64_t rows = 0;
  for (const auto& p : *pages) rows += p.num_rows();
  EXPECT_EQ(rows, 2);  // rv in {20, 30} only (5 fails residual)
}

TEST(HashJoinTest, BuildColumnsAreDictionaryEncoded) {
  JoinFixture fixture(sql::JoinType::kInner);
  fixture.Build(false);
  HashProbeOperator probe(Ctx(), fixture.node, fixture.bridge, false);
  ASSERT_TRUE(probe.AddInput(ProbePage()).ok());
  probe.NoMoreInput();
  auto pages = Drain(&probe);
  ASSERT_TRUE(pages.ok());
  ASSERT_FALSE(pages->empty());
  // §V-E: join output references build data through dictionary blocks.
  EXPECT_EQ((*pages)[0].block(2)->encoding(), BlockEncoding::kDictionary);
  EXPECT_EQ((*pages)[0].block(3)->encoding(), BlockEncoding::kDictionary);
}

// ---- sorting / limiting ----

std::shared_ptr<const SortNode> MakeSortNode(RowSchema schema,
                                             std::vector<SortKey> keys) {
  auto values = std::make_shared<ValuesNode>(
      0, std::move(schema), std::vector<std::vector<Value>>{});
  return std::make_shared<SortNode>(1, std::move(keys), values);
}

TEST(OrderByOperatorTest, SortsAcrossPages) {
  RowSchema schema;
  schema.Add("v", TypeKind::kBigint);
  OrderByOperator op(Ctx(), MakeSortNode(schema, {{0, false}}));
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({3, 1})})).ok());
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({2, 5})})).ok());
  op.NoMoreInput();
  auto pages = Drain(&op);
  ASSERT_TRUE(pages.ok());
  std::vector<int64_t> got;
  for (const auto& p : *pages) {
    for (int64_t r = 0; r < p.num_rows(); ++r) {
      got.push_back(p.block(0)->GetValue(r).AsBigint());
    }
  }
  EXPECT_EQ(got, (std::vector<int64_t>{5, 3, 2, 1}));
}

TEST(OrderByOperatorTest, SpilledRunsMergeInOrder) {
  RowSchema schema;
  schema.Add("v", TypeKind::kBigint);
  OrderByOperator op(Ctx(), MakeSortNode(schema, {{0, true}}));
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({9, 3, 7})})).ok());
  EXPECT_GT(op.Revoke(), 0);  // spill run 1
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({4, 8})})).ok());
  EXPECT_GT(op.Revoke(), 0);  // spill run 2
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({1, 6})})).ok());
  op.NoMoreInput();
  auto pages = Drain(&op);
  ASSERT_TRUE(pages.ok());
  std::vector<int64_t> got;
  for (const auto& p : *pages) {
    for (int64_t r = 0; r < p.num_rows(); ++r) {
      got.push_back(p.block(0)->GetValue(r).AsBigint());
    }
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 3, 4, 6, 7, 8, 9}));
}

TEST(TopNOperatorTest, KeepsSmallest) {
  RowSchema schema;
  schema.Add("v", TypeKind::kBigint);
  auto values = std::make_shared<ValuesNode>(
      0, schema, std::vector<std::vector<Value>>{});
  auto node = std::make_shared<TopNNode>(1, std::vector<SortKey>{{0, true}},
                                         3, false, values);
  TopNOperator op(Ctx(), node);
  std::vector<int64_t> data;
  for (int64_t i = 100; i > 0; --i) data.push_back(i);
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock(data)})).ok());
  op.NoMoreInput();
  auto pages = Drain(&op);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ((*pages)[0].num_rows(), 3);
  EXPECT_EQ((*pages)[0].block(0)->GetValue(0), Value::Bigint(1));
  EXPECT_EQ((*pages)[0].block(0)->GetValue(2), Value::Bigint(3));
}

TEST(LimitOperatorTest, TruncatesMidPage) {
  LimitOperator op(Ctx(), 3);
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({1, 2})})).ok());
  auto p1 = op.GetOutput();
  ASSERT_TRUE(p1.ok() && p1->has_value());
  EXPECT_TRUE(op.needs_input());
  ASSERT_TRUE(op.AddInput(Page({MakeBigintBlock({3, 4, 5})})).ok());
  auto p2 = op.GetOutput();
  ASSERT_TRUE(p2.ok() && p2->has_value());
  EXPECT_EQ((*p2)->num_rows(), 1);
  EXPECT_TRUE(op.IsFinished());
}

// ---- local exchange + driver ----

TEST(DriverTest, MovesPagesThroughPipeline) {
  RowSchema schema;
  schema.Add("v", TypeKind::kBigint);
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value::Bigint(i)});
  auto values_node = std::make_shared<ValuesNode>(0, schema, rows);
  auto queue = std::make_shared<LocalExchangeQueue>(1);

  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<ValuesOperator>(Ctx("values"), values_node));
  ops.push_back(std::make_unique<FilterProjectOperator>(
      Ctx("filter"),
      Call("gte", {Col(0, TypeKind::kBigint), Lit(Value::Bigint(5))}),
      std::vector<ExprPtr>{Col(0, TypeKind::kBigint)}));
  ops.push_back(
      std::make_unique<LocalExchangeSinkOperator>(Ctx("sink"), queue));
  Driver driver(std::move(ops));
  int64_t cpu = 0;
  auto state = driver.Process(1'000'000'000, &cpu);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, Driver::State::kFinished);
  bool done = false;
  auto page = queue->Poll(&done);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->num_rows(), 5);
  queue->Poll(&done);
  EXPECT_TRUE(done);
}

TEST(DriverTest, ReportsBlockedWhenNoProgress) {
  auto queue = std::make_shared<LocalExchangeQueue>(1);  // never finishes
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(
      std::make_unique<LocalExchangeSourceOperator>(Ctx("source"), queue));
  ops.push_back(std::make_unique<LimitOperator>(Ctx("limit"), 10));
  Driver driver(std::move(ops));
  int64_t cpu = 0;
  auto state = driver.Process(1'000'000, &cpu);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, Driver::State::kBlocked);
}

}  // namespace
}  // namespace presto
