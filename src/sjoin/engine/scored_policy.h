#ifndef SJOIN_ENGINE_SCORED_POLICY_H_
#define SJOIN_ENGINE_SCORED_POLICY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/replacement_policy.h"

/// \file
/// Base class for "rank and keep the best" policies.
///
/// Almost every policy in the paper — RAND, PROB, LIFE, HEEB, and the
/// caching heuristics — assigns each candidate tuple a desirability score
/// and discards the lowest-scored candidates. This base implements the
/// selection; subclasses provide the score.

namespace sjoin {

/// Keeps the `capacity` highest-scored candidates (cached ∪ arrivals).
/// Ties are broken in favor of the most recent arrival, then by id, so runs
/// are deterministic.
///
/// Score-ranked selection is exactly a global top-k, so it decomposes over
/// value-domain shards: this base also implements PolicyShardScoring, with
/// defaults that express a policy whose Score() is read-only between
/// BeginStep() and EndStep(). Subclasses opt in by overriding
/// ShardScorable() to return true once their Score() is safe to call
/// concurrently for distinct cached tuples; stateful subclasses (HEEB's
/// incremental modes) additionally override the shard hooks they need.
class ScoredPolicy : public ReplacementPolicy, public PolicyShardScoring {
 public:
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) final;

  /// Returns this when the subclass opted in via ShardScorable() and no
  /// score observer is installed (the observer contract — every score, in
  /// serial step order — is only honored by the serial path).
  PolicyShardScoring* shard_scoring() final;

  /// The serial engine builds the per-step SoA batch exactly when the
  /// subclass has a batch kernel to consume it.
  bool WantsCandidateBatch() const final { return BatchScorable(); }

  /// Verification hook: when set, receives every candidate's score exactly
  /// as SelectRetained computes it. The differential harness uses this to
  /// compare scoring implementations in lockstep on a shared cache
  /// trajectory; it costs one branch per candidate when unset.
  using ScoreObserver = std::function<void(const Tuple&, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

  // PolicyShardScoring. The defaults delegate to BeginStep/Score/EndStep
  // and map the merge key to (score, arrival, id) — the serial sort order.
  bool ShardBeginStep(const PolicyContext& ctx,
                      std::vector<TupleId>* decided) override;
  std::optional<ShardKey> ShardScoreCached(const Tuple& tuple,
                                           const PolicyContext& ctx,
                                           ShardScratch* scratch) override;
  std::optional<ShardKey> ShardScoreArrival(const Tuple& tuple,
                                            const PolicyContext& ctx) override;
  void ShardEndStep(const PolicyContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override;
  /// Batch shard scoring rides the same opt-ins: a policy whose Score()
  /// is shard-safe and which has a batch kernel can score whole cached
  /// runs per shard. ScoredPolicy never excludes candidates, so the
  /// no-nullopt batch contract holds for every subclass.
  bool ShardBatchScorable() const override {
    return ShardScorable() && BatchScorable();
  }
  void ShardScoreCachedBatch(const CandidateBatch& batch,
                             const PolicyContext& ctx, ShardScratch* scratch,
                             double* score_scratch, ShardKey* out) override;

 protected:
  /// Sharded-execution opt-in: return true when Score() may be called
  /// concurrently for distinct cached tuples after BeginStep() (or after
  /// an overridden ShardBeginStep()). Default false: serial fallback.
  virtual bool ShardScorable() const { return false; }

  /// Called once per step before any Score() calls; lets subclasses refresh
  /// per-step state (frequency tables, incremental HEEB values, ...).
  virtual void BeginStep(const PolicyContext& ctx) { (void)ctx; }

  /// Lane passed to Score where the caller has none (sharded scoring).
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

  /// Desirability of keeping `tuple`; higher is better. `lane` is the
  /// tuple's candidate lane this step (cached then arrivals) on the serial
  /// path, kNoLane on the sharded one.
  virtual double Score(const Tuple& tuple, std::uint32_t lane,
                       const PolicyContext& ctx) = 0;

  /// Batched-kernel opt-in: return true when ScoreBatchInto() produces
  /// scores bit-identical to per-lane Score() calls in lane order.
  /// Queried per step on the serial path and per Run on the sharded path.
  virtual bool BatchScorable() const { return false; }

  /// Scores every batch lane into out[i]. Kernels vectorize across
  /// candidates: each lane keeps the scalar path's per-tuple operation
  /// order, so results are bitwise equal to Score(). The default is the
  /// per-lane loop.
  virtual void ScoreBatchInto(const CandidateBatch& batch,
                              const PolicyContext& ctx, double* out);

  /// Called with the final retained set; lets subclasses drop state for
  /// evicted tuples. On the serial path `ranked` holds the retained
  /// candidates in retained order, each with its lane; on the sharded path
  /// only the ids are known and it is empty.
  virtual void EndStep(const PolicyContext& ctx,
                       const std::vector<TupleId>& retained,
                       std::span<const RankedTuple> ranked) {
    (void)ctx;
    (void)retained;
    (void)ranked;
  }

 private:
  ScoreObserver score_observer_;
  // Per-step scratch reused across SelectRetained calls so the hot loop
  // stays allocation-free after warm-up.
  std::vector<RankedTuple> ranked_scratch_;
  std::vector<double> score_scratch_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORED_POLICY_H_
