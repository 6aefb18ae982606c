#include "sjoin/multi/multi_join_simulator.h"

#include "sjoin/common/check.h"
#include "sjoin/engine/probe_planner.h"

namespace sjoin {

MultiJoinSimulator::MultiJoinSimulator(
    int num_streams, std::vector<std::pair<int, int>> join_edges,
    Options options)
    : topology_(num_streams, std::move(join_edges)), options_(options) {
  SJOIN_CHECK_GE(options_.capacity, 1u);
  SJOIN_CHECK_EQ(options_.shards, 1);
  SJOIN_CHECK_EQ(options_.threads, 1);
}

MultiJoinRunResult MultiJoinSimulator::Run(
    const std::vector<std::vector<Value>>& streams,
    MultiReplacementPolicy& policy) const {
  SJOIN_CHECK_EQ(static_cast<int>(streams.size()),
                 topology_.num_streams());
  std::vector<const std::vector<Value>*> stream_ptrs;
  stream_ptrs.reserve(streams.size());
  for (const std::vector<Value>& stream : streams) {
    stream_ptrs.push_back(&stream);
  }

  // Per-call planner state keeps Run thread-safe, like the engine itself.
  std::optional<ProbePlanner> planner;
  if (options_.planner) {
    planner.emplace(
        ProbePlanner::Options{.replan_interval = options_.replan_interval});
  }
  StreamEngine engine(topology_,
                      {.capacity = options_.capacity,
                       .warmup = options_.warmup,
                       .window = options_.window,
                       .probe_planner = planner ? &*planner : nullptr});
  PerfObserver perf;
  EngineRunResult run = engine.Run(stream_ptrs, policy, {&perf});

  MultiJoinRunResult result;
  result.total_results = run.total_results;
  result.counted_results = run.counted_results;
  result.telemetry = perf.telemetry();
  return result;
}

}  // namespace sjoin
