#ifndef SJOIN_CORE_DOMINANCE_PREFILTER_POLICY_H_
#define SJOIN_CORE_DOMINANCE_PREFILTER_POLICY_H_

#include <cstdint>

#include "sjoin/engine/replacement_policy.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Corollary 2 as a runnable policy: before consulting a heuristic, test
/// whether the tuples to be discarded can be chosen as a *dominated
/// subset* of the candidates — in which case the choice is provably
/// optimal and no heuristic is needed. Only when the ECBs are too
/// entangled does the fallback heuristic decide.
///
/// The exposed counters measure how often dominance alone settles the
/// decision in a given scenario (Section 5 predicts: always, for offline /
/// stationary / right-bounded-trend caching; often not, for crossing-ECB
/// scenarios like TOWER or drifting walks).

namespace sjoin {

/// Dominance-first replacement policy for the joining problem.
class DominancePrefilterPolicy final : public ReplacementPolicy {
 public:
  struct Options {
    /// Horizon over which ECBs are tabulated and compared.
    Time horizon = 60;
  };

  /// Wraps `fallback` (not owned, must outlive this policy). Processes are
  /// the stream models used to tabulate ECBs. The fallback is only invoked
  /// on steps dominance cannot settle, so it must not rely on seeing every
  /// step (use HEEB in kDirect mode or another stateless policy, not the
  /// incremental modes).
  DominancePrefilterPolicy(const StochasticProcess* r_process,
                           const StochasticProcess* s_process,
                           ReplacementPolicy* fallback, Options options);

  void Reset() override;

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override;

  const char* name() const override { return "DOMINANCE+FALLBACK"; }

  /// Decisions fully resolved by a dominated subset / total decisions.
  std::int64_t decisions_by_dominance() const {
    return decisions_by_dominance_;
  }
  std::int64_t total_decisions() const { return total_decisions_; }

 private:
  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  ReplacementPolicy* fallback_;
  Options options_;
  /// True when the fallback decided the last step.
  bool fallback_decided_last_ = false;
  std::int64_t decisions_by_dominance_ = 0;
  std::int64_t total_decisions_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_DOMINANCE_PREFILTER_POLICY_H_
