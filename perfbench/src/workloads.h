#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdio>
#include <memory>

#include "bench.h"

namespace perfbench {

/// Each workload sets itself up several times (reporting the median set-up
/// time), runs its closed loop for options().seconds, checks every answer,
/// and in a traced run follows with the standalone layer probes. Returns
/// the process exit code.
int RunInteractive(Bench* bench);
int RunAnalytic(Bench* bench);
int RunEtlChurn(Bench* bench);

/// Runs `setup` (returning a std::unique_ptr to the workload's state, null
/// on failure) `times` times, recording each duration; every set-up but the
/// last is torn down before the next starts. Returns the last state.
template <typename SetupFn>
auto SetUpRepeatedly(Bench* bench, int times, SetupFn setup)
    -> decltype(setup()) {
  decltype(setup()) env;
  for (int i = 0; i < times; ++i) {
    env.reset();
    presto::Stopwatch timer;
    env = setup();
    bench->RecordSetup(timer.ElapsedSeconds());
    if (env == nullptr) {
      fprintf(stderr, "%s: set-up failed\n",
              bench->options().workload.c_str());
      break;
    }
  }
  return env;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
