#ifndef SJOIN_ENGINE_SCORED_CACHING_POLICY_H_
#define SJOIN_ENGINE_SCORED_CACHING_POLICY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sjoin/engine/caching_policy.h"

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
  /// set, receives every candidate value's score, in candidate order, as
  /// ScoreValues produced it for the selection.
  using ScoreObserver = std::function<void(Value, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

 protected:
  /// Desirability of keeping the database tuple with value `v`.
  virtual double Score(Value v, const CachingContext& ctx) = 0;

  /// Scores one step's candidate values (ctx.cached in order, then
  /// ctx.referenced on a miss) into out[i]; called once per step. The
  /// default calls Score() per value, in that order. A policy whose scores
  /// share per-step work overrides this instead.
  virtual void ScoreValues(std::span<const Value> values,
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
  // the candidate values on a miss (cached, then referenced), their
  // scores, the ranked candidates and the retained lanes.
  std::vector<Value> values_;
  std::vector<double> scores_;
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> retained_lanes_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORED_CACHING_POLICY_H_
