#ifndef SJOIN_ENGINE_REPLACEMENT_POLICY_H_
#define SJOIN_ENGINE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/candidate_batch.h"
#include "sjoin/engine/rank_order.h"
#include "sjoin/engine/tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The replacement-decision interface for the joining problem.
///
/// Mirrors Section 3.3's definition of an algorithm A: inputs are K (the
/// cached tuples), N (the newly arrived tuples), H (the full arrival
/// history), and the policy's own statistical knowledge; the output is the
/// new cache content, a subset of K ∪ N.

namespace sjoin {

/// What an engine step hands a policy beyond K, N and H. Every field is a
/// shortcut the policy may ignore. Borrowed for the SelectRetained call.
struct EngineStep {
  /// SoA view of this step's candidates in scalar scoring order (cached
  /// then arrivals), or null when the engine did not build one.
  const CandidateBatch* batch = nullptr;
  /// True when the cached tuples are exactly the list this policy
  /// returned at the previous step, in that order, so state the policy
  /// carried in that order still lines up. The engines set it on every
  /// step but a session's first: their commit caches the retained ids in
  /// returned order.
  bool carried = false;
  /// Where a policy may report the lane of each id it returns, in
  /// returned order (lane i < cached->size() is the i-th cached tuple, the
  /// rest are the arrivals), so the commit need not find the ids again.
  /// Engine-owned and empty on entry, or null; leaving it empty is always
  /// valid.
  std::vector<std::uint32_t>* retained_lanes = nullptr;
};

/// Everything a policy may inspect when making the decision at one step.
struct PolicyContext {
  /// Time of the new arrivals.
  Time now = 0;
  /// Cache capacity k.
  std::size_t capacity = 0;
  /// Tuples currently cached (the K of Section 3.3). Size <= capacity.
  const std::vector<Tuple>* cached = nullptr;
  /// Tuples that just arrived at `now` (the N of Section 3.3).
  const std::vector<Tuple>* arrivals = nullptr;
  /// Observed values of streams R and S, inclusive of time `now`.
  const StreamHistory* history_r = nullptr;
  const StreamHistory* history_s = nullptr;
  /// Sliding-window length w (Section 7): a tuple that arrived at time a
  /// participates in joins only while now - a <= w. nullopt = regular join.
  std::optional<Time> window;
  /// The engine's hand-offs for this step, or null when the caller is not
  /// an engine. One pointer, so that a hand-off does not grow the
  /// context, which every BinaryPolicyAdapter holds.
  const EngineStep* step = nullptr;

  /// EngineStep::carried; false without an engine step.
  bool carried() const { return step != nullptr && step->carried; }
  /// EngineStep::retained_lanes; null without an engine step.
  std::vector<std::uint32_t>* retained_lanes() const {
    return step != nullptr ? step->retained_lanes : nullptr;
  }
};

/// Merge key of one candidate tuple under sharded execution.
///
/// Shards score their candidates independently and sort them by this key;
/// the engine then merges the per-shard sorted runs and keeps the global
/// top k. The key induces the same strict total order the serial selection
/// sorts by — score descending, then `major` descending, then `minor`
/// descending — so the merged prefix is bit-identical to the serial
/// result. ScoredPolicy maps (major, minor) = (arrival time, tuple id);
/// the Theorem 1 reduction maps them to (is-referenced, original value),
/// matching ScoredCachingPolicy's tie-break.
struct ShardKey {
  double score = 0.0;
  std::int64_t major = 0;
  std::int64_t minor = 0;
};

/// Strict weak ordering of ShardKeys, best first: the rank_order.h total
/// order, which makes the k-way merge deterministic and exact.
inline bool ShardKeyBetter(const ShardKey& a, const ShardKey& b) {
  return RankOrderBetter(a.score, a.major, a.minor, b.score, b.major,
                         b.minor);
}

/// Per-shard scratch space owned by the policy (prediction buffers, ...).
/// The sharded engine allocates one per shard via MakeShardScratch() and
/// hands it back on every scoring call from that shard, so scoring can
/// stay allocation-free without sharing mutable state across threads.
class ShardScratch {
 public:
  virtual ~ShardScratch() = default;
};

/// Optional sharded-scoring protocol a ReplacementPolicy can expose
/// through shard_scoring().
///
/// Per step the engine calls, in order:
///   1. ShardBeginStep — serial; per-step state refresh. May decide the
///      whole step (return false) to skip scoring, e.g. the reduction's
///      cache-hit fast path.
///   2. ShardScoreCached — concurrent, one call per cached tuple, each
///      tuple scored from the shard that owns its value. Must not touch
///      state shared across shards except read-only step state prepared
///      in ShardBeginStep.
///   3. ShardScoreArrival — serial (after a barrier), in arrival order;
///      may mutate policy state (HEEB inserts incremental state here).
///   4. ShardEndStep — serial, with the merged retained set and the
///      evicted ids (candidates \ retained, free from the merge
///      leftovers) so per-tuple state drops in O(evicted).
///
/// A nullopt from either scoring call excludes the tuple from retention
/// entirely (the reduction uses this for reference-stream tuples, which a
/// reasonable policy never caches).
class PolicyShardScoring {
 public:
  virtual ~PolicyShardScoring() = default;

  /// Serial per-step preparation. Returning false means the step is fully
  /// decided: `*decided` holds the retained ids and no scoring happens.
  virtual bool ShardBeginStep(const PolicyContext& ctx,
                              std::vector<TupleId>* decided) = 0;

  /// Scratch for one shard; nullptr when the policy needs none.
  virtual std::unique_ptr<ShardScratch> MakeShardScratch() {
    return nullptr;
  }

  /// Thread-safe scoring of one cached tuple.
  virtual std::optional<ShardKey> ShardScoreCached(
      const Tuple& tuple, const PolicyContext& ctx,
      ShardScratch* scratch) = 0;

  /// True when ShardScoreCachedBatch may replace the per-tuple
  /// ShardScoreCached loop for whole shard runs. Batch-scorable policies
  /// must never exclude a cached tuple (no nullopt lanes). Queried once
  /// per Run, at entry.
  virtual bool ShardBatchScorable() const { return false; }

  /// Batched counterpart of ShardScoreCached: scores every lane of the
  /// shard's cached run into out[i], bit-identical to the per-tuple calls.
  /// `score_scratch` is a caller-provided buffer of batch.size doubles
  /// (arena-carved per shard, so kernels stay allocation-free and
  /// thread-confined). The default loops ShardScoreCached.
  virtual void ShardScoreCachedBatch(const CandidateBatch& batch,
                                     const PolicyContext& ctx,
                                     ShardScratch* scratch,
                                     double* score_scratch, ShardKey* out) {
    (void)score_scratch;
    for (std::size_t i = 0; i < batch.size; ++i) {
      Tuple tuple{batch.ids[i], static_cast<StreamSide>(batch.sides[i]),
                  batch.values[i], batch.arrivals[i]};
      out[i] = *ShardScoreCached(tuple, ctx, scratch);
    }
  }

  /// Serial scoring of one arrival.
  virtual std::optional<ShardKey> ShardScoreArrival(
      const Tuple& tuple, const PolicyContext& ctx) = 0;

  /// Serial step epilogue. `evicted` is candidates \ retained.
  virtual void ShardEndStep(const PolicyContext& ctx,
                            const std::vector<TupleId>& retained,
                            const std::vector<TupleId>& evicted) = 0;
};

/// A cache replacement policy for the joining problem.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Clears per-run state; called by the simulator before each run.
  virtual void Reset() {}

  /// Returns the ids of tuples to retain: a subset of the ids in
  /// ctx.cached ∪ ctx.arrivals with size <= ctx.capacity. The simulator
  /// validates the result.
  virtual std::vector<TupleId> SelectRetained(const PolicyContext& ctx) = 0;

  /// Non-null when the policy can score candidates shard-locally with
  /// results bit-identical to SelectRetained; the sharded engine then uses
  /// the PolicyShardScoring protocol instead. Policies whose decisions are
  /// not score-decomposable (FlowExpect, OPT-offline, RAND's sequential
  /// RNG draws) keep the nullptr default and fall back to the serial path.
  /// Queried once per Run, at entry.
  virtual PolicyShardScoring* shard_scoring() { return nullptr; }

  /// True when the policy consumes PolicyContext::batch (so the engine
  /// should spend the per-step gather building it). Queried at Open.
  virtual bool WantsCandidateBatch() const { return false; }

  /// Human-readable policy name for experiment reports.
  virtual const char* name() const = 0;
};

/// True if `tuple` is still inside the sliding window at time `now`
/// (always true for regular join semantics).
inline bool InWindow(const Tuple& tuple, Time now,
                     const std::optional<Time>& window) {
  return !window.has_value() || now - tuple.arrival <= *window;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_REPLACEMENT_POLICY_H_
