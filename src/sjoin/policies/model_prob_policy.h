#ifndef SJOIN_POLICIES_MODEL_PROB_POLICY_H_
#define SJOIN_POLICIES_MODEL_PROB_POLICY_H_

#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Model-driven PROB (Section 5.2): keep the tuples whose join attribute
/// values are most likely to appear next in the partner stream, using the
/// *model's* predictive distribution rather than observed frequencies.
///
/// For stationary independent streams this is exactly the policy the
/// framework proves optimal (the joining analogue of A0); for other
/// processes it is the one-step-greedy baseline, which HEEB generalizes by
/// weighting the whole future.

namespace sjoin {

/// One-step model-probability eviction for the joining problem.
class ModelProbPolicy final : public ScoredPolicy {
 public:
  /// Processes are not owned and must outlive the policy.
  ModelProbPolicy(const StochasticProcess* r_process,
                  const StochasticProcess* s_process)
      : r_process_(r_process), s_process_(s_process) {}

  const char* name() const override { return "MODEL-PROB"; }

 protected:
  void BeginStep(const PolicyContext& ctx) override;
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;

 private:
  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  // Next-step predictive pmfs, refreshed per step.
  DiscreteDistribution next_[2];
};

/// The caching analogue — the A0 algorithm of [Aho, Denning, Ullman 1971]:
/// evict the database tuple with the lowest (model) reference probability.
/// Optimal for (almost) stationary reference streams (Section 5.2).
class A0CachingPolicy final : public ScoredCachingPolicy {
 public:
  explicit A0CachingPolicy(const StochasticProcess* reference)
      : reference_(reference) {}

  const char* name() const override { return "A0"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override {
    return reference_->Predict(*ctx.history, ctx.now + 1).Prob(v);
  }

 private:
  const StochasticProcess* reference_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_MODEL_PROB_POLICY_H_
