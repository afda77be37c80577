// analytic: operator-bound scans, aggregations, a join and sorts over the
// 2.1M-row fact table (256 pages of 8192 rows), on the in-process engine.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "probes.h"
#include "vector/block.h"
#include "workloads.h"

namespace perfbench {

namespace {

using presto::Page;
using presto::PrestoEngine;
using presto::Value;

/// Set-ups per run (each about 1.2 s); setup_s is their median.
constexpr int kSetups = 5;

constexpr int kPages = 256;
constexpr int64_t kPageRows = 8192;
constexpr int64_t kRows = kPages * kPageRows;
constexpr int64_t kKeys = 1000;      // GROUP BY k cardinality; dim rows
constexpr int64_t kDimGroups = 10;
constexpr int64_t kYRange = 100;
constexpr int64_t kVRange = 1000000;

// fact(id, k, y, v): id is the row number; dim(dk, grp) maps every k.
struct Data {
  std::vector<int64_t> k, y, v;
  std::vector<int64_t> grp;  // indexed by dk
};

Data Generate(uint64_t seed) {
  Rng rng(seed * 0x51ED27 + 1);
  Data d;
  d.k.resize(kRows);
  d.y.resize(kRows);
  d.v.resize(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    d.k[i] = rng.Below(kKeys);
    d.y[i] = rng.Below(kYRange);
    d.v[i] = rng.Below(kVRange);
  }
  d.grp.resize(kKeys);
  for (auto& g : d.grp) g = rng.Below(kDimGroups);
  return d;
}

std::vector<int64_t> Slice(const std::vector<int64_t>& col, int64_t begin) {
  return std::vector<int64_t>(col.begin() + begin,
                              col.begin() + begin + kPageRows);
}

std::vector<Page> FactPages(const Data& d) {
  std::vector<Page> pages;
  pages.reserve(kPages);
  for (int p = 0; p < kPages; ++p) {
    int64_t begin = p * kPageRows;
    std::vector<int64_t> id(kPageRows);
    std::iota(id.begin(), id.end(), begin);
    pages.push_back(Page({presto::MakeBigintBlock(std::move(id)),
                          presto::MakeBigintBlock(Slice(d.k, begin)),
                          presto::MakeBigintBlock(Slice(d.y, begin)),
                          presto::MakeBigintBlock(Slice(d.v, begin))}));
  }
  return pages;
}

presto::RowSchema FactSchema() {
  presto::RowSchema schema;
  for (const char* c : {"id", "k", "y", "v"}) {
    schema.Add(c, presto::TypeKind::kBigint);
  }
  return schema;
}

Row Bigints(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Bigint(v));
  return row;
}

// The fixed suite, with every answer computed from the generated data.
std::vector<Statement> Suite(const Data& d, int64_t selective_y) {
  std::vector<Statement> suite;
  auto add = [&](std::string sql, std::vector<Row> rows, bool ordered,
                 int64_t rows_read) {
    Statement s;
    s.sql = std::move(sql);
    s.expected.rows = std::move(rows);
    s.expected.ordered = ordered;
    s.rows_read = rows_read;
    suite.push_back(std::move(s));
  };
  add("SELECT count(*) FROM fact", {Bigints({kRows})}, false, kRows);

  int64_t count = 0, sum = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    if (d.y[i] * 2 + 1 > 50) {
      ++count;
      sum += d.v[i];
    }
  }
  add("SELECT count(*), sum(v) FROM fact WHERE y * 2 + 1 > 50",
      {Bigints({count, sum})}, false, kRows);

  std::vector<int64_t> key_sum(kKeys), key_count(kKeys);
  std::vector<int64_t> grp_sum(kDimGroups), grp_count(kDimGroups);
  for (int64_t i = 0; i < kRows; ++i) {
    key_sum[d.k[i]] += d.v[i];
    ++key_count[d.k[i]];
    grp_sum[d.grp[d.k[i]]] += d.v[i];
    ++grp_count[d.grp[d.k[i]]];
  }
  std::vector<Row> by_key;
  for (int64_t k = 0; k < kKeys; ++k) {
    if (key_count[k] > 0) {
      by_key.push_back(Bigints({k, key_sum[k], key_count[k]}));
    }
  }
  add("SELECT k, sum(v), count(*) FROM fact GROUP BY k", by_key, false, kRows);

  std::vector<Row> by_grp;
  for (int64_t g = 0; g < kDimGroups; ++g) {
    if (grp_count[g] > 0) {
      by_grp.push_back(Bigints({g, grp_count[g], grp_sum[g]}));
    }
  }
  add("SELECT d.grp, count(*), sum(f.v) FROM fact f JOIN dim d ON f.k = d.dk "
      "GROUP BY d.grp",
      by_grp, false, kRows + kKeys);

  std::vector<int64_t> ids(kRows);
  std::iota(ids.begin(), ids.end(), 0);
  std::partial_sort(ids.begin(), ids.begin() + 10, ids.end(),
                    [&](int64_t a, int64_t b) {
                      return d.v[a] != d.v[b] ? d.v[a] > d.v[b] : a < b;
                    });
  std::vector<Row> top;
  for (int i = 0; i < 10; ++i) top.push_back(Bigints({ids[i], d.v[ids[i]]}));
  add("SELECT id, v FROM fact ORDER BY v DESC, id LIMIT 10", top, true, kRows);

  std::vector<int64_t> subset;
  for (int64_t i = 0; i < kRows; ++i) {
    if (d.y[i] == selective_y) subset.push_back(i);
  }
  std::sort(subset.begin(), subset.end(), [&](int64_t a, int64_t b) {
    return d.v[a] != d.v[b] ? d.v[a] < d.v[b] : a < b;
  });
  std::vector<Row> sorted;
  for (int64_t i : subset) sorted.push_back(Bigints({i, d.v[i]}));
  add("SELECT id, v FROM fact WHERE y = " + std::to_string(selective_y) +
          " ORDER BY v, id",
      sorted, true, kRows);
  return suite;
}

struct Env {
  std::shared_ptr<presto::MemoryConnector> memory;
  std::vector<Page> pages;
  std::unique_ptr<PrestoEngine> engine;
};

// One timed set-up: generate and load the tables, build the engine, and
// run the suite once (the first, cold plans and statistics).
std::unique_ptr<Env> Setup(Bench* bench, const std::vector<Statement>& suite) {
  auto env = std::make_unique<Env>();
  Data d = Generate(bench->options().seed);
  env->pages = FactPages(d);
  env->memory = std::make_shared<presto::MemoryConnector>("memory");
  std::vector<int64_t> dk(kKeys);
  std::iota(dk.begin(), dk.end(), 0);
  presto::RowSchema dim_schema;
  dim_schema.Add("dk", presto::TypeKind::kBigint);
  dim_schema.Add("grp", presto::TypeKind::kBigint);
  if (!env->memory->CreateTable("fact", FactSchema(), env->pages).ok() ||
      !env->memory
           ->CreateTable("dim", dim_schema,
                         {Page({presto::MakeBigintBlock(std::move(dk)),
                                presto::MakeBigintBlock(d.grp)})})
           .ok()) {
    return nullptr;
  }
  env->engine = MakeMemoryEngine(env->memory);
  for (const Statement& s : suite) bench->Execute(env->engine.get(), s);
  return env;
}

}  // namespace

int RunAnalytic(Bench* bench) {
  const uint64_t seed = bench->options().seed;
  const std::vector<Statement> suite =
      Suite(Generate(seed), static_cast<int64_t>(seed % kYRange));

  std::unique_ptr<Env> env =
      SetUpRepeatedly(bench, kSetups, [&] { return Setup(bench, suite); });
  if (env == nullptr) return 1;

  // Closed loop, one client, whole suites only.
  PrestoEngine* engine = env->engine.get();
  Rng jitter(seed);
  bench->StartMeasuring(engine);
  do {
    for (const Statement& s : suite) {
      Jitter(&jitter);
      bench->Execute(engine, s);
    }
  } while (!bench->TimeUp());
  bench->StopMeasuring(engine);

  if (bench->options().trace) {
    LayerProbes probes;
    for (const Statement& s : suite) probes.statement_texts.push_back(s.sql);
    probes.explain_sql = suite[3].sql;
    probes.fresh_engine = [&] { return MakeMemoryEngine(env->memory); };
    probes.http_engine = [&] { return MakeMemoryEngine(env->memory, true); };
    probes.warm_engine = engine;
    probes.connector = env->memory.get();
    probes.table = "fact";
    probes.pages = env->pages;
    probes.operator_engine = engine;
    probes.operator_probes = {
        {"project", "SELECT id + v, k * 2 FROM fact WHERE y = 3"},
        {"writer", "CREATE TABLE probe_writer AS SELECT id, k, y, v FROM fact "
                   "WHERE y < 10"},
    };
    RunLayerProbes(bench, probes);
  }
  return bench->Finish();
}

}  // namespace perfbench
