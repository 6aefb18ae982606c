#ifndef SJOIN_MULTI_MULTI_JOIN_SIMULATOR_H_
#define SJOIN_MULTI_MULTI_JOIN_SIMULATOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/engine/stream_tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// Multiple binary equijoins over multiple streams — the generalization
/// the paper's Appendix C sketches: "in the case of multiple binary joins,
/// this expected benefit is a summary of each expected benefit of the
/// binary join with one partner stream."
///
/// N streams each emit one tuple per step; a join graph lists the stream
/// pairs that join on value equality; one shared cache of k tuples feeds
/// all the joins. With N = 2 and the single edge (0, 1) this reduces
/// exactly to the binary JoinSimulator (see multi_join_test).
///
/// Since the StreamEngine unification the engine *is* this N-way loop
/// (engine/stream_engine.h); the multi layer's tuple, context and policy
/// types are aliases of the engine's, and MultiJoinSimulator is a façade
/// kept for the historical vector-of-streams API.

namespace sjoin {

/// A tuple from one of N streams.
using MultiTuple = StreamTuple;

/// Ids are deterministic: the tuple of stream s arriving at time t gets
/// id t * num_streams + s.
constexpr TupleId MultiTupleIdAt(int num_streams, int stream, Time t) {
  return StreamTupleIdAt(num_streams, stream, t);
}

/// Step context for a multi-join replacement decision.
using MultiPolicyContext = EngineContext;

/// Replacement policy for the multi-join problem — the engine's single
/// decision interface.
using MultiReplacementPolicy = EnginePolicy;

/// Per-run accounting.
struct MultiJoinRunResult {
  std::int64_t total_results = 0;
  std::int64_t counted_results = 0;
  /// Perf telemetry, collected by the façade's PerfObserver.
  EngineTelemetry telemetry;
};

/// Simulates N streams joined along a join graph with one shared cache.
class MultiJoinSimulator {
 public:
  struct Options {
    std::size_t capacity = 10;
    Time warmup = 0;
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
    /// Runtime probe planning (DESIGN.md §2f): Phase-1 partner probes run
    /// in an order re-planned from observed selectivities at deterministic
    /// checkpoints every `replan_interval` steps, empty partners are
    /// short-circuited, and repeated (partner, value) probes are served
    /// from a probe-result cache. Cost-only — results stay bit-identical;
    /// the run result's telemetry reports probes / skips / cache hits /
    /// replans. Applies to the serial path (all multi policies today).
    bool planner = false;
    Time replan_interval = 64;
  };

  /// `join_edges` lists unordered stream pairs (i != j) that equijoin.
  MultiJoinSimulator(int num_streams,
                     std::vector<std::pair<int, int>> join_edges,
                     Options options);

  /// `streams[s][t]` is stream s's value at time t; all streams must have
  /// equal length. Thread-safe: each call builds its own engine.
  MultiJoinRunResult Run(const std::vector<std::vector<Value>>& streams,
                         MultiReplacementPolicy& policy) const;

  int num_streams() const { return topology_.num_streams(); }
  const std::vector<std::pair<int, int>>& join_edges() const {
    return topology_.join_edges();
  }

  /// Streams that join with `stream` under the join graph.
  const std::vector<int>& PartnersOf(int stream) const {
    return topology_.PartnersOf(stream);
  }

  /// The underlying join graph (for policies that take a StreamTopology,
  /// e.g. EdgeBudgetPolicy).
  const StreamTopology& topology() const { return topology_; }

 private:
  StreamTopology topology_;
  Options options_;
};

}  // namespace sjoin

#endif  // SJOIN_MULTI_MULTI_JOIN_SIMULATOR_H_
