#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "connector/connector.h"
#include "connectors/memcon/memory_connector.h"
#include "engine/engine.h"
#include "vector/page.h"

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, seeded from the
/// command line so one seed always yields the same data and statements.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Sleeps 0-3 ms, uniformly at random, before a closed-loop client's next
/// statement. A client that sends the instant the previous statement ends
/// locks into phase with the engine's timers (executor park back-off,
/// exchange long-polls), and the phase a run happens to lock into moved
/// etl_churn's median read latency by up to 40% between runs.
void Jitter(Rng* rng);

/// Workers in every engine the benchmark builds: 2 in-process workers or 2
/// worker daemons, each with 2 executor threads (a 4-core machine).
constexpr int kWorkers = 2;

/// The in-process (kThreads) engine shape.
presto::EngineOptions ThreadsEngineOptions();

/// A kThreads engine whose default catalog is `memory`; with
/// `http_exchange` its shuffles go over the HTTP exchange instead of in
/// process.
std::unique_ptr<presto::PrestoEngine> MakeMemoryEngine(
    const std::shared_ptr<presto::MemoryConnector>& memory,
    bool http_exchange = false);

/// Inputs of the standalone layer probes, which run only in a traced run,
/// after the workload, so they never change what its statements find in
/// the engine's caches.
struct LayerProbes {
  /// Statement texts the workload sent (parse probe).
  std::vector<std::string> statement_texts;
  /// A representative SELECT, planned cold and warm.
  std::string explain_sql;
  /// Builds a fresh engine over the same connectors (cold caches).
  std::function<std::unique_ptr<presto::PrestoEngine>()> fresh_engine;
  /// Set when the workload's engine shuffles in process: builds the same
  /// engine with the HTTP exchange, on which `explain_sql` measures the
  /// exchange.http_* layers.
  std::function<std::unique_ptr<presto::PrestoEngine>()> http_engine;
  /// The warm engine the workload ran on.
  presto::PrestoEngine* warm_engine = nullptr;
  /// The workload's main table, at its run size.
  presto::Connector* connector = nullptr;
  std::string table;
  /// Pages of the main table (page-codec probe).
  std::vector<presto::Page> pages;
  /// Engine for operator probes, and one probe statement per operator
  /// label, run only for labels the workload never exercised.
  presto::PrestoEngine* operator_engine = nullptr;
  std::vector<std::pair<std::string, std::string>> operator_probes;
};

void RunLayerProbes(Bench* bench, const LayerProbes& probes);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
