// etl_churn: writes beside reads. Every cycle appends one 8192-row batch to
// table t with INSERT ... SELECT, then reads t three times with distinct
// SQL. Each write invalidates t's cached metadata, statistics and plans, so
// the first read after it plans cold.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "probes.h"
#include "vector/block.h"
#include "workloads.h"

namespace perfbench {

namespace {

using presto::Page;
using presto::PrestoEngine;
using presto::Value;

/// Set-ups per run (each about 0.5 s); setup_s is their median.
constexpr int kSetups = 7;

constexpr int64_t kPageRows = 8192;
constexpr int kBasePages = 64;  // t starts at 524,288 rows
constexpr int64_t kBaseRows = kBasePages * kPageRows;
constexpr int64_t kBatchRows = kPageRows;  // staging: one batch
/// Cycles per epoch; t is rebuilt at the start of every epoch, so every
/// epoch does identical work however many epochs a run completes.
constexpr int kCyclesPerEpoch = 8;
constexpr int64_t kGroups = 100;
constexpr int64_t kVRange = 1000000;
constexpr int kTopN = 5;

struct Table {
  std::vector<int64_t> g, v;  // id is the row number
};

Table Generate(Rng* rng, int64_t rows) {
  Table t;
  t.g.resize(rows);
  t.v.resize(rows);
  for (int64_t i = 0; i < rows; ++i) {
    t.g[i] = rng->Below(kGroups);
    t.v[i] = rng->Below(kVRange);
  }
  return t;
}

struct Data {
  Table base;
  Table staging;
  std::vector<int64_t> delta;  // per cycle, added to v on insert
};

Data GenerateAll(uint64_t seed) {
  Rng rng(seed * 0x2545F491 + 7);
  Data d;
  d.base = Generate(&rng, kBaseRows);
  d.staging = Generate(&rng, kBatchRows);
  for (int i = 0; i < kCyclesPerEpoch; ++i) d.delta.push_back(rng.Below(1000));
  return d;
}

std::vector<Page> Pages(const Table& t, int64_t first_id) {
  std::vector<Page> pages;
  const int64_t rows = static_cast<int64_t>(t.g.size());
  for (int64_t begin = 0; begin < rows; begin += kPageRows) {
    int64_t end = std::min<int64_t>(begin + kPageRows, rows);
    std::vector<int64_t> id(end - begin);
    std::iota(id.begin(), id.end(), first_id + begin);
    auto slice = [&](const std::vector<int64_t>& col) {
      return presto::MakeBigintBlock(
          std::vector<int64_t>(col.begin() + begin, col.begin() + end));
    };
    pages.push_back(Page({presto::MakeBigintBlock(std::move(id)), slice(t.g),
                          slice(t.v)}));
  }
  return pages;
}

presto::RowSchema Schema() {
  presto::RowSchema schema;
  for (const char* c : {"id", "g", "v"}) {
    schema.Add(c, presto::TypeKind::kBigint);
  }
  return schema;
}

Row Bigints(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Bigint(v));
  return row;
}

/// One cycle: the write, then the three reads with their answers after it.
struct Cycle {
  Statement write;
  std::vector<Statement> reads;
};

std::vector<Cycle> Cycles(const Data& d) {
  // Running oracle over t: per-group counts and sums, plus every row for
  // the top-N read.
  std::vector<int64_t> count(kGroups), sum(kGroups);
  std::vector<std::pair<int64_t, int64_t>> rows;  // (v, id)
  for (int64_t i = 0; i < kBaseRows; ++i) {
    ++count[d.base.g[i]];
    sum[d.base.g[i]] += d.base.v[i];
    rows.push_back({d.base.v[i], i});
  }
  std::vector<Cycle> cycles;
  for (int c = 0; c < kCyclesPerEpoch; ++c) {
    const int64_t first_id = kBaseRows + c * kBatchRows;
    Cycle cycle;
    cycle.write.sql = "INSERT INTO t SELECT id + " +
                      std::to_string(first_id) + ", g, v + " +
                      std::to_string(d.delta[c]) + " FROM staging";
    cycle.write.is_write = true;
    cycle.write.rows_read = kBatchRows;
    cycle.write.expected.rows = {Bigints({kBatchRows})};
    for (int64_t i = 0; i < kBatchRows; ++i) {
      int64_t g = d.staging.g[i];
      int64_t v = d.staging.v[i] + d.delta[c];
      ++count[g];
      sum[g] += v;
      rows.push_back({v, first_id + i});
    }
    const int64_t table_rows = first_id + kBatchRows;

    Statement filtered;
    filtered.sql = "SELECT count(*), sum(v) FROM t WHERE g < 25";
    int64_t fc = 0, fs = 0;
    for (int64_t g = 0; g < 25; ++g) {
      fc += count[g];
      fs += sum[g];
    }
    filtered.expected.rows = {Bigints({fc, fs})};

    Statement grouped;
    grouped.sql = "SELECT g, count(*), sum(v) FROM t GROUP BY g";
    for (int64_t g = 0; g < kGroups; ++g) {
      if (count[g] > 0) {
        grouped.expected.rows.push_back(Bigints({g, count[g], sum[g]}));
      }
    }

    Statement top;
    top.sql = "SELECT id, v FROM t ORDER BY v DESC, id LIMIT " +
              std::to_string(kTopN);
    std::partial_sort(rows.begin(), rows.begin() + kTopN, rows.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    for (int i = 0; i < kTopN; ++i) {
      top.expected.rows.push_back(Bigints({rows[i].second, rows[i].first}));
    }
    top.expected.ordered = true;

    for (Statement* s : {&filtered, &grouped, &top}) {
      s->rows_read = table_rows;
      cycle.reads.push_back(std::move(*s));
    }
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

struct Env {
  std::shared_ptr<presto::MemoryConnector> memory;
  std::vector<Page> base_pages;
  std::unique_ptr<PrestoEngine> engine;

  bool Reset() { return memory->CreateTable("t", Schema(), base_pages).ok(); }
};

void RunCycle(Bench* bench, PrestoEngine* engine, const Cycle& cycle,
              Rng* jitter) {
  Jitter(jitter);
  bench->Execute(engine, cycle.write);
  for (const Statement& read : cycle.reads) {
    Jitter(jitter);
    bench->Execute(engine, read);
  }
}

// One timed set-up: generate and load t and staging, build the engine, and
// run one cycle (the first, cold plans and statistics).
std::unique_ptr<Env> Setup(Bench* bench, const Cycle& first) {
  auto env = std::make_unique<Env>();
  Data d = GenerateAll(bench->options().seed);
  env->base_pages = Pages(d.base, 0);
  env->memory = std::make_shared<presto::MemoryConnector>("memory");
  if (!env->Reset() ||
      !env->memory->CreateTable("staging", Schema(), Pages(d.staging, 0))
           .ok()) {
    return nullptr;
  }
  env->engine = MakeMemoryEngine(env->memory);
  Rng jitter(bench->options().seed);
  RunCycle(bench, env->engine.get(), first, &jitter);
  return env;
}

}  // namespace

int RunEtlChurn(Bench* bench) {
  const std::vector<Cycle> cycles = Cycles(GenerateAll(bench->options().seed));

  std::unique_ptr<Env> env = SetUpRepeatedly(
      bench, kSetups, [&] { return Setup(bench, cycles.front()); });
  if (env == nullptr) return 1;

  // Closed loop, one client, whole epochs only.
  PrestoEngine* engine = env->engine.get();
  Rng jitter(bench->options().seed);
  bench->StartMeasuring(engine);
  do {
    bench->PauseClock();
    bool reset = env->Reset();
    bench->ResumeClock();
    if (!reset) {
      fprintf(stderr, "etl_churn: rebuilding t failed\n");
      return 1;
    }
    for (const Cycle& cycle : cycles) RunCycle(bench, engine, cycle, &jitter);
  } while (!bench->TimeUp());
  bench->StopMeasuring(engine);

  if (bench->options().trace) {
    LayerProbes probes;
    for (const Cycle& cycle : cycles) {
      probes.statement_texts.push_back(cycle.write.sql);
      for (const Statement& s : cycle.reads) {
        probes.statement_texts.push_back(s.sql);
      }
    }
    probes.explain_sql = cycles.front().reads[1].sql;
    probes.fresh_engine = [&] { return MakeMemoryEngine(env->memory); };
    probes.http_engine = [&] { return MakeMemoryEngine(env->memory, true); };
    probes.warm_engine = engine;
    probes.connector = env->memory.get();
    probes.table = "t";
    auto pages = env->memory->GetPages("t");
    if (pages.ok()) probes.pages = std::move(*pages);
    probes.operator_engine = engine;
    probes.operator_probes = {
        {"project", "SELECT id + v, g * 2 FROM t WHERE g = 3"},
        {"hash_build", "SELECT count(*) FROM t JOIN staging s ON t.id = s.id"},
        {"hash_probe", "SELECT count(*) FROM t JOIN staging s ON t.id = s.id"},
        {"order_by", "SELECT id, v FROM t WHERE g = 3 ORDER BY v, id"},
    };
    RunLayerProbes(bench, probes);
  }
  return bench->Finish();
}

}  // namespace perfbench
