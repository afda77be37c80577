// Differential tests for the keyed operators (group-by, hash join, TopN,
// ORDER BY, window) over every key type, block encoding and null pattern:
// each operator runs on encoded pages and its answer is checked against the
// reference executor on the same rows. Also pins the batch key hash to
// Block::HashAt / Value::Hash and the sort order of NULL and NaN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "connectors/memcon/memory_connector.h"
#include "engine/engine.h"
#include "engine/reference_executor.h"
#include "exec/driver.h"
#include "exec/keys.h"
#include "exec/operators.h"
#include "expr/function_registry.h"
#include "memory/memory.h"
#include "vector/encoded_block.h"

namespace presto {
namespace {

using Rows = std::vector<std::vector<Value>>;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const TypeKind kKeyTypes[] = {TypeKind::kBigint, TypeKind::kDate,
                              TypeKind::kDouble, TypeKind::kVarchar,
                              TypeKind::kBoolean};

enum class Encoding { kFlat, kDictionary, kRle };
enum class Nulls { kNone, kSome, kAll };

const Encoding kEncodings[] = {Encoding::kFlat, Encoding::kDictionary,
                               Encoding::kRle};
const Nulls kNullModes[] = {Nulls::kNone, Nulls::kSome, Nulls::kAll};

std::string Describe(TypeKind type, Encoding encoding, Nulls nulls,
                     size_t keys) {
  const char* enc[] = {"flat", "dictionary", "rle"};
  const char* nul[] = {"no nulls", "some nulls", "all nulls"};
  return std::string(TypeToString(type)) + ", " + enc[static_cast<int>(encoding)] + ", " +
         nul[static_cast<int>(nulls)] + ", " + std::to_string(keys) +
         " key(s)";
}

constexpr int kDomain = 7;

// Value `i` of a small domain, so keys repeat. DOUBLE covers -0.0 and 0.0
// (equal), NaN and both infinities.
Value KeyValue(TypeKind type, uint64_t i) {
  i %= kDomain;
  switch (type) {
    case TypeKind::kBigint:
      return Value::Bigint(static_cast<int64_t>(i) - 3);
    case TypeKind::kDate:
      return Value::Date(9000 + static_cast<int64_t>(i));
    case TypeKind::kDouble: {
      const double values[kDomain] = {-0.0, 0.0, kNaN, 1.5, -2.25, kInf, -kInf};
      return Value::Double(values[i]);
    }
    case TypeKind::kVarchar: {
      const char* values[kDomain] = {"", "a", "ab", "b", "ba", "zz", "a "};
      return Value::Varchar(values[i]);
    }
    case TypeKind::kBoolean:
      return Value::Boolean(i % 2 == 0);
    default:
      break;
  }
  return Value::Null(type);
}

// One key column of `rows` rows in `encoding`; its boxed values go to
// `boxed`. RLE pages hold one value (NULL on odd pages with some nulls).
BlockPtr KeyColumn(TypeKind type, Encoding encoding, Nulls nulls, int page,
                   int64_t rows, Random* rng, std::vector<Value>* boxed) {
  auto draw = [&]() -> uint64_t {
    bool null = nulls == Nulls::kAll ||
                (nulls == Nulls::kSome && rng->NextBool(0.25));
    return null ? kDomain : rng->NextUint64(kDomain);  // kDomain = NULL
  };
  std::vector<Value> domain;
  for (int i = 0; i < kDomain; ++i) domain.push_back(KeyValue(type, i));
  domain.push_back(Value::Null(type));
  boxed->clear();
  switch (encoding) {
    case Encoding::kFlat: {
      for (int64_t r = 0; r < rows; ++r) boxed->push_back(domain[draw()]);
      return MakeBlockFromValues(type, *boxed);
    }
    case Encoding::kDictionary: {
      std::vector<int32_t> indices;
      for (int64_t r = 0; r < rows; ++r) {
        indices.push_back(static_cast<int32_t>(draw()));
        boxed->push_back(domain[static_cast<size_t>(indices.back())]);
      }
      return std::make_shared<DictionaryBlock>(
          MakeBlockFromValues(type, domain), std::move(indices));
    }
    case Encoding::kRle: {
      uint64_t pick = nulls == Nulls::kAll ||
                              (nulls == Nulls::kSome && page % 2 == 1)
                          ? kDomain
                          : rng->NextUint64(kDomain);
      boxed->assign(static_cast<size_t>(rows), domain[pick]);
      return std::make_shared<RleBlock>(
          MakeBlockFromValues(type, {domain[pick]}), rows);
    }
  }
  return nullptr;
}

// Pages of (key0 <type>, key1 BIGINT, id BIGINT): both keys in `encoding`
// with `nulls`; ids are unique, starting at `first_id`.
struct Dataset {
  RowSchema schema;
  std::vector<Page> pages;
  Rows rows;
  std::vector<TypeKind> types() const {
    std::vector<TypeKind> out;
    for (const auto& c : schema.columns()) out.push_back(c.type);
    return out;
  }
};

Dataset MakeData(TypeKind type, Encoding encoding, Nulls nulls,
                 uint64_t seed, int64_t first_id, int pages = 3,
                 int64_t rows_per_page = 40) {
  Random rng(seed);
  Dataset data;
  data.schema.Add("key0", type);
  data.schema.Add("key1", TypeKind::kBigint);
  data.schema.Add("id", TypeKind::kBigint);
  int64_t id = first_id;
  for (int p = 0; p < pages; ++p) {
    std::vector<Value> k0, k1;
    BlockPtr b0 =
        KeyColumn(type, encoding, nulls, p, rows_per_page, &rng, &k0);
    BlockPtr b1 = KeyColumn(TypeKind::kBigint, encoding, nulls, p + 1,
                            rows_per_page, &rng, &k1);
    std::vector<int64_t> ids;
    for (int64_t r = 0; r < rows_per_page; ++r) {
      data.rows.push_back({k0[static_cast<size_t>(r)],
                           k1[static_cast<size_t>(r)], Value::Bigint(id)});
      ids.push_back(id++);
    }
    data.pages.push_back(Page({b0, b1, MakeBigintBlock(std::move(ids))}));
  }
  return data;
}

std::unique_ptr<OperatorContext> Ctx(TaskRuntime runtime = TaskRuntime{}) {
  return std::make_unique<OperatorContext>(runtime, TaskSpec{}, "op");
}

std::shared_ptr<ValuesNode> Values(int id, const Dataset& data) {
  return std::make_shared<ValuesNode>(id, data.schema, data.rows);
}

void AppendRows(const Page& page, Rows* out) {
  for (int64_t r = 0; r < page.num_rows(); ++r) out->push_back(page.GetRow(r));
}

// Calls GetOutput until the operator finishes.
Rows Drain(Operator* op) {
  Rows out;
  for (int spin = 0; spin < 100000 && !op->IsFinished(); ++spin) {
    auto page = op->GetOutput();
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) break;
    if (page->has_value()) AppendRows(**page, &out);
  }
  EXPECT_TRUE(op->IsFinished());
  return out;
}

Rows Feed(Operator* op, const std::vector<Page>& pages) {
  for (const Page& page : pages) {
    EXPECT_TRUE(op->AddInput(page).ok());
  }
  op->NoMoreInput();
  return Drain(op);
}

Rows Reference(const PlanNodePtr& plan) {
  Catalog catalog;
  auto rows = ExecuteReference(catalog, plan);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : Rows{};
}

// Same rows in the same order; NULL equals NULL, NaN equals NaN.
bool SameRowsInOrder(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (a[r][c].Compare(b[r][c]) != 0) return false;
    }
  }
  return true;
}

// Same multiset of rows, compared as SameRowsInOrder does (so -0.0 equals
// 0.0: a group-by keeps a DOUBLE zero key as 0.0, the reference as first
// seen).
bool SameRows(Rows a, Rows b) {
  auto less = [](const std::vector<Value>& x, const std::vector<Value>& y) {
    for (size_t c = 0; c < x.size(); ++c) {
      int cmp = x[c].Compare(y[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return SameRowsInOrder(a, b);
}

std::string Show(const Rows& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (const auto& v : row) out += v.ToString() + " ";
    out += "\n";
  }
  return out;
}

// Runs `check(type, encoding, nulls, keys)` over every combination.
template <typename Check>
void ForEachKeyShape(Check check) {
  for (TypeKind type : kKeyTypes) {
    for (Encoding encoding : kEncodings) {
      for (Nulls nulls : kNullModes) {
        for (size_t keys : {1, 2}) {
          SCOPED_TRACE(Describe(type, encoding, nulls, keys));
          check(type, encoding, nulls, keys);
        }
      }
    }
  }
}

std::vector<int> FirstKeys(size_t keys) {
  return keys == 1 ? std::vector<int>{0} : std::vector<int>{0, 1};
}

// ---- batch hash ----

TEST(KeyedOperatorsTest, BatchHashIsBitIdenticalToBlockAndValueHash) {
  ForEachKeyShape([](TypeKind type, Encoding encoding, Nulls nulls,
                     size_t keys) {
    Dataset data = MakeData(type, encoding, nulls, 11, 0);
    for (const Page& page : data.pages) {
      std::vector<uint64_t> hashes;
      HashKeys(DecodeKeys(page.blocks(), FirstKeys(keys)), page.num_rows(),
               &hashes);
      ASSERT_EQ(static_cast<int64_t>(hashes.size()), page.num_rows());
      for (int64_t r = 0; r < page.num_rows(); ++r) {
        uint64_t by_block = 0;
        uint64_t by_value = 0;
        for (int k : FirstKeys(keys)) {
          const BlockPtr& block = page.block(static_cast<size_t>(k));
          by_block = HashCombine(by_block, block->HashAt(r));
          by_value = HashCombine(by_value, block->GetValue(r).Hash());
        }
        ASSERT_EQ(hashes[static_cast<size_t>(r)], by_block) << "row " << r;
        ASSERT_EQ(hashes[static_cast<size_t>(r)], by_value) << "row " << r;
      }
    }
  });
}

// ---- group-by ----

TEST(KeyedOperatorsTest, GroupByMatchesReference) {
  auto count = ResolveAggregate("count", std::nullopt, false);
  auto sum = ResolveAggregate("sum", TypeKind::kBigint, false);
  ASSERT_TRUE(count.ok() && sum.ok());
  ForEachKeyShape([&](TypeKind type, Encoding encoding, Nulls nulls,
                      size_t keys) {
    Dataset data = MakeData(type, encoding, nulls, 21, 0);
    RowSchema output;
    for (int k : FirstKeys(keys)) {
      output.Add(data.schema.at(static_cast<size_t>(k)).name,
                 data.schema.at(static_cast<size_t>(k)).type);
    }
    output.Add("n", count->result_type);
    output.Add("total", sum->result_type);
    auto node = std::make_shared<AggregateNode>(
        1, AggregationStep::kSingle, FirstKeys(keys),
        std::vector<AggregateCall>{{*count, -1, "n"}, {*sum, 2, "total"}},
        output, Values(0, data));
    HashAggregationOperator op(Ctx(), node);
    Rows got = Feed(&op, data.pages);
    Rows want = Reference(node);
    EXPECT_TRUE(SameRows(got, want))
        << "got:\n" << Show(got) << "want:\n" << Show(want);
  });
}

// ---- hash join ----

Rows RunJoin(const std::shared_ptr<const JoinNode>& join,
             const Dataset& probe, const Dataset& build) {
  bool outer_build = join->join_type() == sql::JoinType::kRight ||
                     join->join_type() == sql::JoinType::kFull;
  auto bridge = std::make_shared<JoinBridge>();
  HashBuildOperator builder(Ctx(), bridge, build.types(), join->right_keys(),
                            outer_build);
  for (const Page& page : build.pages) {
    EXPECT_TRUE(builder.AddInput(page).ok());
  }
  builder.NoMoreInput();
  HashProbeOperator prober(Ctx(), join, bridge, outer_build);
  Rows out;
  for (const Page& page : probe.pages) {
    EXPECT_TRUE(prober.needs_input());
    EXPECT_TRUE(prober.AddInput(page).ok());
    // A page is probed to the end before the prober asks for more input.
    while (!prober.needs_input()) {
      auto result = prober.GetOutput();
      EXPECT_TRUE(result.ok());
      if (!result.ok() || !result->has_value()) break;
      AppendRows(**result, &out);
    }
  }
  prober.NoMoreInput();
  Rows rest = Drain(&prober);
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

TEST(KeyedOperatorsTest, HashJoinMatchesReference) {
  const sql::JoinType kJoinTypes[] = {sql::JoinType::kInner,
                                      sql::JoinType::kLeft,
                                      sql::JoinType::kRight,
                                      sql::JoinType::kFull};
  ForEachKeyShape([&](TypeKind type, Encoding encoding, Nulls nulls,
                      size_t keys) {
    Dataset probe = MakeData(type, encoding, nulls, 31, 0);
    Dataset build = MakeData(type, encoding, nulls, 32, 1000, 2, 25);
    RowSchema output;
    for (const auto& c : probe.schema.columns()) output.Add("p_" + c.name, c.type);
    for (const auto& c : build.schema.columns()) output.Add("b_" + c.name, c.type);
    for (sql::JoinType join_type : kJoinTypes) {
      SCOPED_TRACE("join type " + std::to_string(static_cast<int>(join_type)));
      auto join = std::make_shared<JoinNode>(
          2, join_type, FirstKeys(keys), FirstKeys(keys), nullptr,
          JoinDistribution::kPartitioned, output, Values(0, probe),
          Values(1, build));
      Rows got = RunJoin(join, probe, build);
      Rows want = Reference(join);
      EXPECT_TRUE(SameRows(got, want))
          << "got " << got.size() << " rows, want " << want.size();
    }
  });
}

// ---- TopN, ORDER BY, window ----

std::vector<SortKey> SortKeys(size_t keys, bool ascending) {
  std::vector<SortKey> out = {{0, ascending}};
  if (keys == 2) out.push_back({1, !ascending});
  return out;
}

TEST(KeyedOperatorsTest, TopNMatchesReference) {
  ForEachKeyShape([](TypeKind type, Encoding encoding, Nulls nulls,
                     size_t keys) {
    Dataset data = MakeData(type, encoding, nulls, 41, 0);
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(ascending ? "ASC" : "DESC");
      auto node = std::make_shared<TopNNode>(1, SortKeys(keys, ascending), 25,
                                             false, Values(0, data));
      TopNOperator op(Ctx(), node);
      Rows got = Feed(&op, data.pages);
      Rows want = Reference(node);
      EXPECT_TRUE(SameRowsInOrder(got, want))
          << "got:\n" << Show(got) << "want:\n" << Show(want);
    }
  });
}

TEST(KeyedOperatorsTest, OrderByMatchesReferenceInMemoryAndSpilled) {
  ForEachKeyShape([](TypeKind type, Encoding encoding, Nulls nulls,
                     size_t keys) {
    Dataset data = MakeData(type, encoding, nulls, 51, 0);
    for (bool ascending : {true, false}) {
      for (bool spill : {false, true}) {
        SCOPED_TRACE(std::string(ascending ? "ASC" : "DESC") +
                     (spill ? ", spilled" : ", in memory"));
        auto node = std::make_shared<SortNode>(1, SortKeys(keys, ascending),
                                               Values(0, data));
        OrderByOperator op(Ctx(), node);
        for (size_t p = 0; p < data.pages.size(); ++p) {
          ASSERT_TRUE(op.AddInput(data.pages[p]).ok());
          // Spill every page but the last: sorted runs plus in-memory rows.
          if (spill && p + 1 < data.pages.size()) {
            EXPECT_GT(op.Revoke(), 0);
          }
        }
        op.NoMoreInput();
        Rows got = Drain(&op);
        Rows want = Reference(node);
        EXPECT_TRUE(SameRowsInOrder(got, want))
            << "got:\n" << Show(got) << "want:\n" << Show(want);
      }
    }
  });
}

TEST(KeyedOperatorsTest, WindowMatchesReference) {
  ForEachKeyShape([](TypeKind type, Encoding encoding, Nulls nulls,
                     size_t keys) {
    Dataset data = MakeData(type, encoding, nulls, 61, 0);
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(ascending ? "ASC" : "DESC");
      // One key: partition by key0, order by key1 (ties exercise rank).
      // Two keys: partition by both, order by id.
      std::vector<SortKey> order = {{keys == 1 ? 1 : 2, ascending}};
      std::vector<WindowFunction> functions;
      for (auto kind : {WindowFunction::Kind::kRowNumber,
                        WindowFunction::Kind::kRank,
                        WindowFunction::Kind::kDenseRank}) {
        WindowFunction fn;
        fn.kind = kind;
        fn.output_name = "f" + std::to_string(functions.size());
        fn.result_type = TypeKind::kBigint;
        functions.push_back(fn);
      }
      RowSchema output = data.schema;
      for (const auto& fn : functions) output.Add(fn.output_name, fn.result_type);
      auto node = std::make_shared<WindowNode>(1, FirstKeys(keys), order,
                                               functions, output,
                                               Values(0, data));
      WindowOperator op(Ctx(), node);
      Rows got = Feed(&op, data.pages);
      Rows want = Reference(node);
      EXPECT_TRUE(SameRowsInOrder(got, want))
          << "got:\n" << Show(got) << "want:\n" << Show(want);
    }
  });
}

// ---- pinned sort order: NULLs and NaN ----

Rows SortOneColumn(BlockPtr column, bool ascending, int64_t limit) {
  RowSchema schema;
  schema.Add("x", column->type());
  auto values = std::make_shared<ValuesNode>(0, schema, Rows{});
  std::vector<SortKey> keys = {{0, ascending}};
  Page page({std::move(column)});
  if (limit > 0) {
    TopNOperator op(Ctx(), std::make_shared<TopNNode>(1, keys, limit, false,
                                                      values));
    return Feed(&op, {page});
  }
  OrderByOperator op(Ctx(), std::make_shared<SortNode>(1, keys, values));
  return Feed(&op, {page});
}

std::vector<std::string> Strings(const Rows& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) out.push_back(row[0].ToString());
  return out;
}

TEST(KeyedOperatorsTest, NullsSortLastAscendingAndFirstDescending) {
  BlockPtr column = MakeBigintBlock({3, 0, 1}, {0, 1, 0});
  using V = std::vector<std::string>;
  EXPECT_EQ(Strings(SortOneColumn(column, true, 0)), (V{"1", "3", "NULL"}));
  EXPECT_EQ(Strings(SortOneColumn(column, false, 0)), (V{"NULL", "3", "1"}));
  EXPECT_EQ(Strings(SortOneColumn(column, true, 2)), (V{"1", "3"}));
  EXPECT_EQ(Strings(SortOneColumn(column, false, 2)), (V{"NULL", "3"}));
}

TEST(KeyedOperatorsTest, NaNSortsAboveInfinity) {
  BlockPtr column =
      MakeDoubleBlock({kNaN, 1.0, kInf, 0.0, -0.0, kNaN}, {0, 0, 0, 1, 0, 0});
  using V = std::vector<std::string>;
  EXPECT_EQ(Strings(SortOneColumn(column, true, 0)),
            (V{"-0", "1", "inf", "nan", "nan", "NULL"}));
  EXPECT_EQ(Strings(SortOneColumn(column, false, 0)),
            (V{"NULL", "nan", "nan", "inf", "1", "-0"}));
  EXPECT_EQ(Strings(SortOneColumn(column, true, 3)), (V{"-0", "1", "inf"}));
  EXPECT_EQ(Strings(SortOneColumn(column, false, 3)),
            (V{"NULL", "nan", "nan"}));
  EXPECT_GT(Value::Double(kNaN).Compare(Value::Double(kInf)), 0);
  EXPECT_EQ(Value::Double(kNaN).Compare(Value::Double(kNaN)), 0);
  EXPECT_LT(Value::Bigint(5).Compare(Value::Double(kNaN)), 0);
}

// ORDER BY / LIMIT over sqrt() of a column that is ~40% negative: every
// NaN must come after every number, and the numbers must be ascending.
TEST(KeyedOperatorsTest, OrderByAndTopNOverNaNAreOrdered) {
  EngineOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executor.threads = 2;
  PrestoEngine engine(options);
  auto memory = std::make_shared<MemoryConnector>("memory");
  RowSchema schema;
  schema.Add("x", TypeKind::kDouble);
  Random rng(7);
  std::vector<double> xs;
  int negatives = 0;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.NextDouble() * 100 - 40);
    if (xs.back() < 0) ++negatives;
  }
  ASSERT_GT(negatives, 50);
  ASSERT_TRUE(memory->CreateTable("t", schema, {Page({MakeDoubleBlock(xs)})})
                  .ok());
  engine.catalog().Register(memory);
  for (int limit : {0, 150}) {
    std::string sql = "SELECT sqrt(x) AS s FROM t ORDER BY s";
    if (limit > 0) sql += " LIMIT " + std::to_string(limit);
    SCOPED_TRACE(sql);
    auto rows = engine.ExecuteAndFetch(sql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), limit > 0 ? 150u : 200u);
    int nans = 0;
    for (size_t i = 0; i < rows->size(); ++i) {
      double s = (*rows)[i][0].AsDouble();
      if (std::isnan(s)) {
        ++nans;
        continue;
      }
      EXPECT_EQ(nans, 0) << "number after a NaN at row " << i;
      if (i > 0) {
        EXPECT_LE((*rows)[i - 1][0].AsDouble(), s) << "row " << i;
      }
    }
    EXPECT_EQ(nans, limit > 0 ? 150 - (200 - negatives) : negatives);
  }
}

// ---- probe batches with no output ----

// A 20,000-row probe page whose leading rows produce nothing must still
// yield output within one Driver::Process call: a probe that returned empty
// handed with the page pending would report no progress and park the driver.
TEST(KeyedOperatorsTest, ProbeBatchWithoutOutputKeepsDriverRunning) {
  RowSchema probe_schema;
  probe_schema.Add("k", TypeKind::kBigint);
  probe_schema.Add("id", TypeKind::kBigint);
  RowSchema build_schema;
  build_schema.Add("bk", TypeKind::kBigint);
  RowSchema output = probe_schema;
  output.Add("bk", TypeKind::kBigint);
  auto probe_values = std::make_shared<ValuesNode>(0, probe_schema, Rows{});
  auto build_values = std::make_shared<ValuesNode>(1, build_schema, Rows{});
  auto id_at_least = [](int64_t n) {
    auto fn = FunctionRegistry::Instance().Resolve(
        "gte", {TypeKind::kBigint, TypeKind::kBigint});
    EXPECT_TRUE(fn.ok());
    return Expr::MakeCall(*fn, {Expr::MakeColumn(1, TypeKind::kBigint),
                                Expr::MakeLiteral(Value::Bigint(n))});
  };
  constexpr int64_t kRows = 20000;
  struct Case {
    const char* name;
    int64_t first_match;  // rows before it have no key match
    ExprPtr residual;
  };
  const Case cases[] = {
      {"no key match in the first 8192 rows", 8192, nullptr},
      {"residual filter rejects the first 16384 rows", 0, id_at_least(16384)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<int64_t> keys;
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < kRows; ++i) {
      keys.push_back(i < c.first_match ? -1 : 1);
      ids.push_back(i);
    }
    auto join = std::make_shared<JoinNode>(
        2, sql::JoinType::kInner, std::vector<int>{0}, std::vector<int>{0},
        c.residual, JoinDistribution::kPartitioned, output, probe_values,
        build_values);
    auto bridge = std::make_shared<JoinBridge>();
    HashBuildOperator builder(Ctx(), bridge, {TypeKind::kBigint}, {0}, false);
    ASSERT_TRUE(builder.AddInput(Page({MakeBigintBlock({1})})).ok());
    builder.NoMoreInput();

    auto input = std::make_shared<LocalExchangeQueue>(1);
    auto results = std::make_shared<LocalExchangeQueue>(1);
    ASSERT_TRUE(input->TryPush(
        Page({MakeBigintBlock(keys), MakeBigintBlock(ids)})));
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<LocalExchangeSourceOperator>(Ctx(), input));
    ops.push_back(
        std::make_unique<HashProbeOperator>(Ctx(), join, bridge, false));
    ops.push_back(std::make_unique<LocalExchangeSinkOperator>(Ctx(), results));
    Driver driver(std::move(ops));
    int64_t cpu = 0;
    auto state = driver.Process(int64_t{10} * 1000 * 1000 * 1000, &cpu);
    ASSERT_TRUE(state.ok());
    bool done = false;
    std::optional<Page> page = results->Poll(&done);
    ASSERT_TRUE(page.has_value()) << "Process returned without output";
    EXPECT_GT(page->num_rows(), 0);
  }
}

// ---- TopN memory ----

TEST(KeyedOperatorsTest, TopNReportsTheBytesOfTheRowsItRetains) {
  MemoryConfig config;
  WorkerMemory worker(&config, 0);
  QueryMemory query("q", &config);
  TaskRuntime runtime;
  runtime.worker_memory = &worker;
  runtime.query_memory = &query;
  constexpr int64_t kN = 5;
  constexpr int64_t kKeyBytes = 1024;
  RowSchema schema;
  schema.Add("s", TypeKind::kVarchar);
  auto values = std::make_shared<ValuesNode>(0, schema, Rows{});
  TopNOperator op(Ctx(runtime), std::make_shared<TopNNode>(
                                    1, std::vector<SortKey>{{0, false}}, kN,
                                    false, values));
  Random rng(3);
  for (int p = 0; p < 8; ++p) {
    std::vector<std::string> keys;
    for (int r = 0; r < 64; ++r) {
      std::string key(kKeyBytes, 'a');
      key[0] = static_cast<char>('a' + rng.NextUint64(26));
      key[1] = static_cast<char>('a' + rng.NextUint64(26));
      keys.push_back(std::move(key));
    }
    ASSERT_TRUE(op.AddInput(Page({MakeVarcharBlock(keys)})).ok());
    // It holds at least the n kept keys and at most a few times that —
    // never the 512 rows it has seen.
    EXPECT_GE(query.global_user(), kN * kKeyBytes) << "page " << p;
    EXPECT_LE(query.global_user(), 4 * kN * (kKeyBytes + 64)) << "page " << p;
  }
  op.NoMoreInput();
  Rows out = Drain(&op);
  EXPECT_EQ(static_cast<int64_t>(out.size()), kN);
}

}  // namespace
}  // namespace presto
