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
class ScoredPolicy : public ReplacementPolicy {
 public:
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) final;

  /// Verification hook: when set, receives every candidate's score exactly
  /// as SelectRetained computes it. The differential harness uses this to
  /// compare scoring implementations in lockstep on a shared cache
  /// trajectory; it costs one branch per candidate when unset.
  using ScoreObserver = std::function<void(const Tuple&, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

 protected:
  /// Called once per step before any Score() calls; lets subclasses refresh
  /// per-step state (frequency tables, incremental HEEB values, ...).
  virtual void BeginStep(const PolicyContext& ctx) { (void)ctx; }

  /// Desirability of keeping `tuple`; higher is better. `lane` is the
  /// tuple's candidate lane this step (cached then arrivals).
  virtual double Score(const Tuple& tuple, std::uint32_t lane,
                       const PolicyContext& ctx) = 0;

  /// Called with the final retained set; lets subclasses drop state for
  /// evicted tuples. `ranked` holds the retained candidates in retained
  /// order, each with its lane.
  virtual void EndStep(const PolicyContext& ctx,
                       std::span<const RankedTuple> ranked) {
    (void)ctx;
    (void)ranked;
  }

 private:
  ScoreObserver score_observer_;
  // Per-step scratch reused across SelectRetained calls so the hot loop
  // stays allocation-free after warm-up.
  std::vector<RankedTuple> ranked_scratch_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORED_POLICY_H_
