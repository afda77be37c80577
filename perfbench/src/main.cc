// perfbench: the repository's end-to-end benchmark. Runs one
// workload in this (fresh) process and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Normally run
// through perfbench/run.py, which builds this binary first.
//
//   perfbench --workload analytic --seed 1 --seconds 10 --trace 0
//             --bin-dir <dir with presto_worker> --out-dir <report dir>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: perfbench --workload interactive|analytic|etl_churn "
          "--seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.seconds <= 0 || options.out_dir.empty()) {
    Usage();
    return 2;
  }
  perfbench::Bench bench(options);
  using perfbench::RunAnalytic;
  using perfbench::RunEtlChurn;
  using perfbench::RunInteractive;
  if (options.workload == "interactive") return RunInteractive(&bench);
  if (options.workload == "analytic") return RunAnalytic(&bench);
  if (options.workload == "etl_churn") return RunEtlChurn(&bench);
  Usage();
  return 2;
}
