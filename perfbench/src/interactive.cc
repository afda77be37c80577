// interactive: short statements against a two-daemon process cluster, where
// fixed per-statement cost (planning, admission, HTTP task creation and
// status, the HTTP exchange and result fetch) dominates.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "connectors/memcon/memory_connector.h"
#include "connectors/tpch/tpch_connector.h"
#include "probes.h"
#include "worker/subprocess.h"
#include "workloads.h"

namespace perfbench {

namespace {

using presto::PrestoEngine;
using presto::Stopwatch;
using presto::Value;

/// Set-ups per run (each under 0.1 s); setup_s is their median.
constexpr int kSetups = 11;

constexpr double kScale = 0.1;
constexpr int kClients = 2;
/// Half the keys a client draws come from this many hot keys, so some
/// statement texts repeat and hit the plan cache.
constexpr int kHotKeys = 32;
/// Mean of a client's pause between receiving an answer and sending its
/// next statement. It keeps the 4-core machine from saturating, so latency
/// reflects the statement path rather than CPU queueing, and it bounds the
/// rate of loopback connections the cluster opens (about 11 per statement,
/// each leaving a TIME_WAIT socket for 60 s). Pauses are drawn from an
/// exponential distribution: with a fixed pause the two clients lock into
/// a phase that decides how often their statements overlap, and that
/// phase differs from run to run.
constexpr double kMeanThinkMillis = 50;

/// The answers every statement can have, read once from the connector's
/// data (outside any timed region).
struct Oracle {
  std::map<int64_t, double> order_price;               // orderkey -> totalprice
  std::map<int64_t, std::pair<int64_t, double>> cust;  // custkey -> count, sum
  // orderkey -> count, sum of its lineitems
  std::map<int64_t, std::pair<int64_t, double>> lines;
  std::vector<int64_t> orderkeys;
  std::vector<int64_t> custkeys;  // customers with at least one order
  int64_t orders_rows = 0;
  int64_t lineitem_rows = 0;
};

// Reads `columns` (all when empty) of a tpch table through the Data
// Source API, page by page.
template <typename Fn>
bool ScanPages(presto::TpchConnector* tpch, const std::string& table,
               std::vector<int> columns, Fn on_page) {
  auto handle = tpch->metadata().GetTable(table);
  if (!handle.ok()) return false;
  presto::ScanSpec spec;
  spec.table = *handle;
  spec.columns = std::move(columns);
  if (spec.columns.empty()) {
    for (size_t i = 0; i < (*handle)->schema().size(); ++i) {
      spec.columns.push_back(static_cast<int>(i));
    }
  }
  auto splits = tpch->GetSplits(spec);
  if (!splits.ok()) return false;
  for (;;) {
    auto batch = (*splits)->NextBatch(64);
    if (!batch.ok()) return false;
    if (batch->empty()) return true;
    for (const auto& split : *batch) {
      auto source = tpch->CreateDataSource(*split, spec);
      if (!source.ok()) return false;
      for (;;) {
        auto page = (*source)->NextPage();
        if (!page.ok()) return false;
        if (!page->has_value()) break;
        on_page(std::move(**page));
      }
    }
  }
}

template <typename Fn>
bool ScanRows(presto::TpchConnector* tpch, const std::string& table,
              std::vector<int> columns, Fn on_row) {
  return ScanPages(tpch, table, std::move(columns),
                   [&](const presto::Page& page) {
                     for (int64_t r = 0; r < page.num_rows(); ++r) {
                       on_row(page.GetRow(r));
                     }
                   });
}

bool BuildOracle(Oracle* o) {
  presto::TpchConnector tpch("tpch", kScale);
  auto index = [&](const std::string& table, const std::string& column) {
    auto handle = tpch.metadata().GetTable(table);
    return static_cast<int>(*(*handle)->schema().IndexOf(column));
  };
  bool ok = ScanRows(&tpch, "orders",
                 {index("orders", "orderkey"), index("orders", "custkey"),
                  index("orders", "totalprice")},
                 [&](const Row& row) {
                   int64_t key = row[0].AsBigint();
                   o->order_price[key] = row[2].AsDouble();
                   auto& c = o->cust[row[1].AsBigint()];
                   ++c.first;
                   c.second += row[2].AsDouble();
                   o->orderkeys.push_back(key);
                   ++o->orders_rows;
                 });
  ok = ok && ScanRows(&tpch, "lineitem",
                  {index("lineitem", "orderkey"),
                   index("lineitem", "extendedprice")},
                  [&](const Row& row) {
                    auto& l = o->lines[row[0].AsBigint()];
                    ++l.first;
                    l.second += row[1].AsDouble();
                    ++o->lineitem_rows;
                  });
  for (const auto& [custkey, _] : o->cust) o->custkeys.push_back(custkey);
  return ok && !o->orderkeys.empty();
}

/// Draws one client's statements: 70% point lookups, 15% per-customer
/// aggregates, 15% single-order joins; keys skewed toward a hot set.
class StatementSource {
 public:
  StatementSource(const Oracle* oracle, uint64_t seed, int client)
      : oracle_(oracle),
        rng_(seed * 0x9E3779B1 + static_cast<uint64_t>(client) + 11) {}

  /// The pause before the next statement.
  std::chrono::microseconds ThinkTime() {
    double millis = -kMeanThinkMillis * std::log(1.0 - rng_.Unit());
    return std::chrono::microseconds(static_cast<int64_t>(millis * 1e3));
  }

  enum Kind { kPointLookup, kCustomerAggregate, kOrderJoin };

  Statement Next() {
    double u = rng_.Unit();
    return Make(u < 0.70   ? kPointLookup
                : u < 0.85 ? kCustomerAggregate
                           : kOrderJoin);
  }

  /// A statement of `kind` on a freshly drawn key.
  Statement Make(Kind kind) {
    Statement s;
    if (kind == kPointLookup) {
      int64_t key = Pick(oracle_->orderkeys);
      s.sql = "SELECT totalprice FROM orders WHERE orderkey = " +
              std::to_string(key);
      s.expected.rows = {{Value::Double(oracle_->order_price.at(key))}};
      s.rows_read = oracle_->orders_rows;
    } else if (kind == kCustomerAggregate) {
      int64_t key = Pick(oracle_->custkeys);
      const auto& [count, sum] = oracle_->cust.at(key);
      s.sql = "SELECT count(*), sum(totalprice) FROM orders WHERE custkey = " +
              std::to_string(key);
      s.expected.rows = {{Value::Bigint(count), Value::Double(sum)}};
      s.rows_read = oracle_->orders_rows;
    } else {
      int64_t key = Pick(oracle_->orderkeys);
      s.sql =
          "SELECT o.orderkey, count(*), sum(l.extendedprice) FROM orders o "
          "JOIN lineitem l ON o.orderkey = l.orderkey WHERE o.orderkey = " +
          std::to_string(key) + " GROUP BY o.orderkey";
      auto it = oracle_->lines.find(key);
      if (it != oracle_->lines.end()) {
        s.expected.rows = {{Value::Bigint(key), Value::Bigint(it->second.first),
                            Value::Double(it->second.second)}};
      }
      s.rows_read = oracle_->orders_rows + oracle_->lineitem_rows;
    }
    return s;
  }

 private:
  int64_t Pick(const std::vector<int64_t>& keys) {
    int64_t n = static_cast<int64_t>(keys.size());
    if (rng_.Unit() < 0.5) return keys[(rng_.Below(kHotKeys) * 7919) % n];
    return keys[rng_.Below(n)];
  }

  const Oracle* oracle_;
  Rng rng_;
};

struct Env {
  std::vector<std::unique_ptr<presto::Subprocess>> daemons;
  std::vector<presto::RemoteWorkerAddress> addresses;
  std::unique_ptr<PrestoEngine> engine;

  // Engine first: it holds connections to the daemons.
  ~Env() {
    engine.reset();
    daemons.clear();  // Subprocess kills and reaps its child
  }
};

presto::EngineOptions ProcessEngineOptions(
    const std::vector<presto::RemoteWorkerAddress>& addresses) {
  presto::EngineOptions options;
  options.cluster.mode = presto::ClusterMode::kProcess;
  options.cluster.remote_workers = addresses;
  return options;
}

std::unique_ptr<PrestoEngine> MakeEngine(const presto::EngineOptions& options) {
  auto engine = std::make_unique<PrestoEngine>(options);
  engine->catalog().Register(
      std::make_shared<presto::TpchConnector>("tpch", kScale));
  engine->catalog().SetDefault("tpch");
  return engine;
}

// One timed set-up: spawn the worker daemons, build the coordinator, wait
// for every daemon's heartbeat, then send one statement of each kind.
std::unique_ptr<Env> Setup(Bench* bench, const Oracle& oracle) {
  auto env = std::make_unique<Env>();
  const std::string worker_bin = bench->options().bin_dir + "/presto_worker";
  for (int i = 0; i < kWorkers; ++i) {
    auto daemon = std::make_unique<presto::Subprocess>();
    presto::Status started = daemon->Start(
        {worker_bin, "--worker_id=" + std::to_string(i), "--threads=2",
         "--tpch_scale=" + std::to_string(kScale),
         "--heartbeat_interval_micros=50000"});
    if (!started.ok()) {
      fprintf(stderr, "worker %d: %s\n", i, started.ToString().c_str());
      return nullptr;
    }
    env->daemons.push_back(std::move(daemon));
    auto ready = env->daemons.back()->WaitForLine("READY", 20'000);
    presto::RemoteWorkerAddress address;
    if (!ready.ok() ||
        sscanf(ready->c_str(),
               "READY task_port=%d exchange_port=%d metrics_port=%d",
               &address.task_port, &address.exchange_port,
               &address.metrics_port) < 2) {
      fprintf(stderr, "worker %d did not start\n", i);
      return nullptr;
    }
    env->addresses.push_back(address);
  }
  env->engine = MakeEngine(ProcessEngineOptions(env->addresses));
  if (!env->engine->StartObservability().ok()) return nullptr;
  for (auto& daemon : env->daemons) {
    (void)daemon->WriteLine("coordinator_port=" +
                            std::to_string(env->engine->observability_port()));
  }
  auto& liveness = env->engine->cluster().liveness();
  Stopwatch wait;
  for (;;) {
    bool all = true;
    for (int i = 0; i < kWorkers; ++i) all = all && liveness.SeenHeartbeat(i);
    if (all) break;
    if (wait.ElapsedSeconds() > 10) {
      fprintf(stderr, "workers sent no heartbeat\n");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StatementSource warmup(&oracle, bench->options().seed, kClients);
  for (auto kind : {StatementSource::kPointLookup,
                    StatementSource::kCustomerAggregate,
                    StatementSource::kOrderJoin}) {
    bench->Execute(env->engine.get(), warmup.Make(kind));
  }
  return env;
}

}  // namespace

int RunInteractive(Bench* bench) {
  Oracle oracle;
  if (!BuildOracle(&oracle)) {
    fprintf(stderr, "interactive: reading the tpch data failed\n");
    return 1;
  }

  std::unique_ptr<Env> env =
      SetUpRepeatedly(bench, kSetups, [&] { return Setup(bench, oracle); });
  if (env == nullptr) return 1;

  // Closed loop: each client sends its next statement one think time after
  // the previous one's last page arrived.
  PrestoEngine* engine = env->engine.get();
  std::vector<std::vector<std::string>> texts(kClients);
  bench->StartMeasuring(engine);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      StatementSource source(&oracle, bench->options().seed, c);
      while (!bench->TimeUp()) {
        Statement s = source.Next();
        bench->Execute(engine, s);
        if (texts[c].size() < 64) texts[c].push_back(s.sql);
        std::this_thread::sleep_for(source.ThinkTime());
      }
    });
  }
  for (auto& client : clients) client.join();
  bench->StopMeasuring(engine);
  for (const auto& daemon : env->daemons) {
    bench->AddExternalPeakRssMb(PeakRssMb(daemon->pid()));
  }

  if (bench->options().trace) {
    // Operator probes run on an in-process engine over the same tpch data
    // plus a memory catalog to write into; the daemons serve tpch only.
    auto side = MakeEngine(ThreadsEngineOptions());
    side->catalog().Register(
        std::make_shared<presto::MemoryConnector>("memory"));
    presto::TpchConnector tpch("tpch", kScale);
    LayerProbes probes;
    for (const auto& t : texts) {
      probes.statement_texts.insert(probes.statement_texts.end(), t.begin(),
                                    t.end());
    }
    probes.explain_sql = probes.statement_texts.front();
    probes.fresh_engine = [&] {
      return MakeEngine(ProcessEngineOptions(env->addresses));
    };
    probes.warm_engine = engine;
    probes.connector = &tpch;
    probes.table = "orders";
    (void)ScanPages(&tpch, "orders", {},
                    [&](presto::Page page) {
                      probes.pages.push_back(std::move(page));
                    });
    probes.operator_engine = side.get();
    probes.operator_probes = {
        {"topn",
         "SELECT orderkey, totalprice FROM orders "
         "ORDER BY totalprice DESC, orderkey LIMIT 10"},
        {"order_by",
         "SELECT orderkey, totalprice FROM orders "
         "ORDER BY totalprice, orderkey"},
        {"writer", "CREATE TABLE memory.probe_writer AS SELECT * FROM orders"},
        {"project",
         "SELECT orderkey * 2, totalprice + 1 FROM orders WHERE custkey < 50"},
    };
    RunLayerProbes(bench, probes);
  }
  return bench->Finish();
}

}  // namespace perfbench
