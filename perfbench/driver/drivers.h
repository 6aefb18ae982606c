#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <cstdint>

#include "report.h"
#include "workloads.h"

/// \file
/// The two workload drivers. Each builds its inputs from the seed, times
/// set-up, runs the measured phases for the given duration, runs the
/// untimed output checks and returns the run's report: end-to-end metrics
/// when `trace` is false, per-layer metrics and the span table when it is
/// true.

namespace perfbench {

struct RunConfig {
  Workload workload = Workload::kServeSmall;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// serve-small and serve-model: SessionScheduler under an open-loop
/// nominal phase and a closed-loop saturation phase.
RunReport RunServe(const RunConfig& config);

/// batch-star5: MULTI-HEEB jobs through MultiJoinSimulator.
RunReport RunBatchStar5(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
