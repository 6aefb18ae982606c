#ifndef SJOIN_ENGINE_CACHE_SIMULATOR_H_
#define SJOIN_ENGINE_CACHE_SIMULATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/step_observer.h"

/// \file
/// Simulator of the caching problem (stream x database-relation join with
/// demand fetching, Section 2). Every reference that is not served from the
/// cache is a miss; after a miss the fetched tuple may be cached.
///
/// Since the StreamEngine unification this class is a façade over the
/// Theorem 1 reduction: the reference sequence is transformed into the
/// (R', S') stream pair (engine/reduction.h) and run on the same engine
/// as the joining problem; hits are exactly the engine's result count.
/// The differential suites pin this equivalence bit-for-bit against a
/// frozen copy of the pre-engine direct caching loop.

namespace sjoin {

/// Per-run accounting for the caching problem.
struct CacheRunResult {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  /// Hits/misses at times >= warmup.
  std::int64_t counted_hits = 0;
  std::int64_t counted_misses = 0;
  /// Perf telemetry (peak candidate set, steps, wall time) — the same
  /// struct JoinRunResult carries, collected by the façade's PerfObserver.
  EngineTelemetry telemetry;
};

/// Runs one caching experiment.
class CacheSimulator {
 public:
  struct Options {
    std::size_t capacity = 10;
    Time warmup = 0;
    /// Sliding-window length (Section 7 carried through the reduction):
    /// a cached tuple older than the window no longer serves hits until
    /// refetched; every hit refreshes its age. nullopt = classic caching.
    std::optional<Time> window;
    /// Value-domain shards for intra-run parallelism
    /// (engine/sharded_stream_engine.h); results are bit-identical for any
    /// count. <= 1, or a policy without shard scoring, runs serially.
    int shards = 1;
    /// Worker threads for the sharded path; 0 = auto (min(shards,
    /// hardware)), 1 = inline. See ShardedStreamEngine::Options::threads.
    int threads = 0;
    /// Pin sharded-path workers to CPUs (Linux only, best effort).
    bool pin_threads = false;
    /// Skew-adaptive sharding (DESIGN.md §2e): deterministic rebalancing
    /// of the value->shard ranges every `adaptive_interval` steps. Results
    /// stay bit-identical; only load balance moves.
    bool adaptive_shards = false;
    Time adaptive_interval = 32;
  };

  explicit CacheSimulator(Options options);

  /// Simulates the reference sequence under `policy`. Calls policy.Reset().
  CacheRunResult Run(const std::vector<Value>& references,
                     CachingPolicy& policy) const;

  /// Runs the caching problem under a joining-problem policy: the policy
  /// sees the Theorem 1 transformed streams (the fresh supply tuple
  /// arrives alongside each reference) and its join results are the hit
  /// count. This is the inverse direction of the unification — joining
  /// policies (RAND, PROB, ...) serving the caching problem through the
  /// same engine code path.
  CacheRunResult RunJoinPolicy(const std::vector<Value>& references,
                               ReplacementPolicy& policy) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_CACHE_SIMULATOR_H_
