#ifndef SJOIN_ENGINE_SCORED_CACHING_POLICY_H_
#define SJOIN_ENGINE_SCORED_CACHING_POLICY_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/candidate_batch.h"

/// \file
/// Base class for score-ranked caching policies (LRU, LFU, LFD, HEEB, ...).

namespace sjoin {

/// Keeps the `capacity` highest-scored database tuples out of
/// cached ∪ {referenced}. Ties break toward the referenced (newest) value,
/// then toward larger values, for determinism.
class ScoredCachingPolicy : public CachingPolicy {
 public:
  std::vector<Value> SelectRetained(const CachingContext& ctx) final;

  /// SelectRetained without building the value list: the retained
  /// candidates' lanes in returned order (lane i < ctx.cached->size() is
  /// cached value i; on a miss the last lane is the referenced value).
  /// Valid until the next call. The Theorem 1 reduction maps these
  /// straight to join lanes.
  const std::vector<std::uint32_t>& SelectRetainedLanes(
      const CachingContext& ctx);

  /// Verification hook mirroring ScoredPolicy::set_score_observer: when
  /// set, receives every candidate value's score as SelectRetained
  /// computes it.
  using ScoreObserver = std::function<void(Value, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

 protected:
  /// Desirability of keeping the database tuple with value `v`.
  virtual double Score(Value v, const CachingContext& ctx) = 0;

  /// Batched-kernel opt-in mirroring ScoredPolicy::BatchScorable: true
  /// when ScoreBatchInto() matches per-lane Score() calls bit for bit.
  virtual bool BatchScorable() const { return false; }

  /// Scores every lane of a values-only batch (batch.values/batch.size;
  /// sides/arrivals/ids are null) into out[i]. Default: per-lane Score().
  virtual void ScoreBatchInto(const CandidateBatch& batch,
                              const CachingContext& ctx, double* out);

  /// Called after every selection with the retained candidates' lanes in
  /// returned order (lane i < ctx.cached->size() is cached value i; on a
  /// miss the last lane is the referenced value). The returned list is the
  /// next step's ctx.cached unless the caller edits it, so a subclass can
  /// carry per-lane state into that order.
  virtual void EndStep(const CachingContext& ctx,
                       const std::vector<std::uint32_t>& retained_lanes) {
    (void)ctx;
    (void)retained_lanes;
  }

 private:
  struct Candidate {
    double score;
    bool is_referenced;
    std::uint32_t lane;
    Value value;
  };

  ScoreObserver score_observer_;
  // Per-call scratch reused across calls, so a step allocates nothing:
  // the candidate value lanes (cached ∪ {referenced on a miss}), their
  // scores, the ranked candidates and the retained lanes.
  std::vector<Value> batch_values_;
  std::vector<double> batch_scores_;
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> retained_lanes_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORED_CACHING_POLICY_H_
