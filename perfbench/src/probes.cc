#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "common/stopwatch.h"
#include "metrics_text.h"
#include "sql/parser.h"
#include "stats_util.h"
#include "vector/page_codec.h"

namespace perfbench {

using presto::PrestoEngine;
using presto::Stopwatch;

presto::EngineOptions ThreadsEngineOptions() {
  presto::EngineOptions options;
  options.cluster.mode = presto::ClusterMode::kThreads;
  options.cluster.num_workers = kWorkers;
  options.cluster.executor.threads = 2;
  return options;
}

void Jitter(Rng* rng) {
  std::this_thread::sleep_for(std::chrono::microseconds(rng->Below(3000)));
}

std::unique_ptr<PrestoEngine> MakeMemoryEngine(
    const std::shared_ptr<presto::MemoryConnector>& memory,
    bool http_exchange) {
  presto::EngineOptions options = ThreadsEngineOptions();
  if (http_exchange) {
    options.cluster.network.transport = presto::TransportMode::kHttp;
  }
  auto engine = std::make_unique<PrestoEngine>(std::move(options));
  engine->catalog().Register(memory);
  engine->catalog().SetDefault(memory->name());
  return engine;
}

namespace {

template <typename Fn>
double MedianNanos(int reps, Fn fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Stopwatch timer;
    fn();
    samples.push_back(static_cast<double>(timer.ElapsedNanos()));
  }
  return Percentile(samples, 50);
}

void Report(const char* probe, const presto::Status& status) {
  if (!status.ok()) {
    fprintf(stderr, "%s probe: %s\n", probe, status.ToString().c_str());
  }
}

void ProbeParse(Bench* bench, const std::vector<std::string>& texts) {
  // At most 64 distinct texts, each parsed 20 times; the layer number is
  // the mean over texts of each text's median parse time.
  std::set<std::string> distinct(texts.begin(), texts.end());
  std::vector<double> per_text;
  for (const std::string& sql : distinct) {
    if (per_text.size() >= 64) break;
    per_text.push_back(MedianNanos(20, [&] {
      Report("parse", presto::sql::ParseStatement(sql).status());
    }));
  }
  bench->SetLayer("sql.parse_us", Mean(per_text) / 1e3, "us",
                  "sql::ParseStatement on " + std::to_string(per_text.size()) +
                      " distinct workload statements");
}

void ProbeExplain(Bench* bench, const LayerProbes& p) {
  double cold = MedianNanos(3, [&] {
    std::unique_ptr<PrestoEngine> fresh = p.fresh_engine();
    Report("explain", fresh->Explain(p.explain_sql).status());
  });
  Report("explain", p.warm_engine->Explain(p.explain_sql).status());
  double warm = MedianNanos(
      50, [&] { (void)p.warm_engine->Explain(p.explain_sql); });
  bench->SetLayer("plan.explain_cold_ms", cold / 1e6, "ms",
                  "PrestoEngine::Explain on a fresh engine, median of 3");
  bench->SetLayer("plan.explain_warm_us", warm / 1e3, "us",
                  "PrestoEngine::Explain repeated on the warm engine, "
                  "median of 50");
}

void ProbeConnector(Bench* bench, const LayerProbes& p) {
  auto handle = p.connector->metadata().GetTable(p.table);
  if (!handle.ok()) {
    Report("connector", handle.status());
    return;
  }
  double stats = MedianNanos(
      3, [&] { (void)p.connector->metadata().GetStats(**handle); });
  presto::ScanSpec spec;
  spec.table = *handle;
  spec.num_workers = kWorkers;
  double splits = MedianNanos(50, [&] {
    auto source = p.connector->GetSplits(spec);
    if (!source.ok()) return;
    for (;;) {
      auto batch = (*source)->NextBatch(1024);
      if (!batch.ok() || batch->empty()) break;
    }
  });
  bench->SetLayer("connector.get_stats_ms", stats / 1e6, "ms",
                  "ConnectorMetadata::GetStats on " + p.table +
                      ", median of 3");
  bench->SetLayer("connector.get_splits_us", splits / 1e3, "us",
                  "Connector::GetSplits drained for " + p.table +
                      ", median of 50");
}

void ProbeCodec(Bench* bench, const LayerProbes& p) {
  presto::PageCodec codec;
  int64_t rows = 0;
  for (const auto& page : p.pages) rows += page.num_rows();
  if (rows == 0) return;
  // Small tables are passed over several times, so every timed sample
  // covers at least about a million rows.
  const int64_t passes = std::max<int64_t>(1, (1 << 20) / rows);
  std::vector<presto::PageCodec::Frame> frames(p.pages.size());
  double encode = MedianNanos(3, [&] {
    for (int64_t pass = 0; pass < passes; ++pass) {
      for (size_t i = 0; i < p.pages.size(); ++i) {
        frames[i] = codec.Encode(p.pages[i]);
      }
    }
  });
  double decode = MedianNanos(3, [&] {
    for (int64_t pass = 0; pass < passes; ++pass) {
      for (const auto& frame : frames) {
        Report("codec", codec.Decode(frame).status());
      }
    }
  });
  std::string note = "PageCodec over " + std::to_string(p.pages.size()) +
                     " pages of " + p.table + " x" + std::to_string(passes) +
                     ", median of 3";
  double per_row = 1.0 / static_cast<double>(rows * passes);
  bench->SetLayer("vector.codec_encode_ns_per_row", encode * per_row,
                  "ns/row", note);
  bench->SetLayer("vector.codec_decode_ns_per_row", decode * per_row,
                  "ns/row", note);
}

void ProbeHttpExchange(Bench* bench, const LayerProbes& p) {
  if (!p.http_engine) return;
  constexpr int kRuns = 5;
  std::unique_ptr<PrestoEngine> engine = p.http_engine();
  for (int i = 0; i < kRuns; ++i) {
    Report("http exchange", engine->ExecuteAndFetch(p.explain_sql).status());
  }
  std::string metrics = engine->metrics().RenderText();
  std::string note = "the workload shuffles in process; measured on the HTTP "
                     "exchange over " + std::to_string(kRuns) +
                     " runs of one of its statements";
  bench->SetLayer(
      "exchange.http_requests_per_query",
      SumSamples(metrics, "presto_exchange_http_requests") / kRuns, "count",
      note);
  bench->SetLayer("exchange.http_retries",
                  SumSamples(metrics, "presto_exchange_http_retries"), "count",
                  note);
}

void ProbeOperators(Bench* bench, const LayerProbes& p) {
  for (const auto& [label, sql] : p.operator_probes) {
    if (bench->SawOperator(label)) continue;
    auto handle = p.operator_engine->Execute(sql);
    if (!handle.ok()) {
      Report(label.c_str(), handle.status());
      continue;
    }
    Report(label.c_str(), handle->FetchAll().status());
    auto info = p.operator_engine->QueryInfoFor(handle->query_id());
    if (info.ok()) bench->AddProbeOperators(info->stats);
  }
}

}  // namespace

void RunLayerProbes(Bench* bench, const LayerProbes& probes) {
  ProbeParse(bench, probes.statement_texts);
  ProbeExplain(bench, probes);
  ProbeConnector(bench, probes);
  ProbeCodec(bench, probes);
  ProbeHttpExchange(bench, probes);
  ProbeOperators(bench, probes);
}

}  // namespace perfbench
