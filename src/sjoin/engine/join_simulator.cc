#include "sjoin/engine/join_simulator.h"

#include "sjoin/common/check.h"
#include "sjoin/engine/sharded_stream_engine.h"

namespace sjoin {

JoinSimulator::JoinSimulator(Options options) : options_(options) {
  SJOIN_CHECK_GE(options_.capacity, 1u);
  SJOIN_CHECK_GE(options_.warmup, 0);
  if (options_.window.has_value()) SJOIN_CHECK_GE(*options_.window, 0);
  SJOIN_CHECK_GE(options_.shards, 1);
}

JoinRunResult JoinSimulator::Run(const std::vector<Value>& r,
                                 const std::vector<Value>& s,
                                 ReplacementPolicy& policy) const {
  SJOIN_CHECK_EQ(r.size(), s.size());

  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = options_.capacity,
                              .warmup = options_.warmup,
                              .window = options_.window,
                              .shards = options_.shards,
                              .threads = options_.threads,
                              .pin_threads = options_.pin_threads,
                              .adaptive = {.enabled = options_.adaptive_shards,
                                           .interval =
                                               options_.adaptive_interval}});
  BinaryPolicyAdapter adapter(&policy);

  JoinRunResult result;
  PerfObserver perf;
  CacheCompositionObserver composition(/*stream=*/0,
                                       &result.r_fraction_by_time);
  std::vector<StepObserver*> observers{&perf};
  if (options_.track_cache_composition) observers.push_back(&composition);

  EngineRunResult run = engine.Run({&r, &s}, adapter, observers);
  result.total_results = run.total_results;
  result.counted_results = run.counted_results;
  result.telemetry = perf.telemetry();
  result.adaptive = engine.adaptive_stats();
  return result;
}

}  // namespace sjoin
