#ifndef SJOIN_TESTING_NAIVE_REFERENCE_H_
#define SJOIN_TESTING_NAIVE_REFERENCE_H_

#include "sjoin/core/ecb.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Deliberately-naive reference implementations of the ECB / HEEB
/// definitions (Sections 4.1 and 4.3), used as differential-testing
/// oracles against the optimized library code.
///
/// Each function recomputes its answer from scratch on every call — fresh
/// Predict() per probability, no tabulation, no incremental recurrences, no
/// buffer reuse — but performs the same floating-point operations in the
/// same order as the definitional formulas, so matching optimized paths
/// (tabulated ECBs, HeebJoinPolicy kDirect) must agree bit for bit, not
/// merely within a tolerance. Keep these dumb: their only job is to be
/// obviously correct.

namespace sjoin {
namespace testing {

/// Joining ECB B(dt) (Lemma 1) by summing dt fresh predictive
/// probabilities. O(dt) per call where TabulatedEcb amortizes to O(1).
double NaiveJoiningEcbAt(const StochasticProcess& partner,
                         const StreamHistory& partner_history, Time t0,
                         Value v, Time dt);

/// Caching ECB B(dt) = 1 - Pr{never referenced} (Corollary 1), survival
/// product recomputed from scratch.
double NaiveCachingEcbAt(const StochasticProcess& reference,
                         const StreamHistory& history, Time t0, Value v,
                         Time dt);

/// Sliding-window ECB (Section 7) applied pointwise to a base curve:
/// 0 if expired, else min(B(dt), B(min(remaining, horizon))).
double NaiveWindowedEcbAt(const EcbFn& base, Time arrival, Time now,
                          Time window, Time horizon, Time dt);

/// The literal Section 4.3 H definition, with every B(dt) taken from the
/// given curve: B(1)L(1) + sum (B(dt) - B(dt-1)) L(dt).
double NaiveHeebFromEcb(const EcbFn& ecb, const LifetimeFn& lifetime,
                        Time horizon);

/// Joining H (Lemma 1 substituted into the definition), fresh Predict per
/// term.
double NaiveJoiningHeeb(const StochasticProcess& partner,
                        const StreamHistory& partner_history, Time t0,
                        Value v, const LifetimeFn& lifetime, Time horizon);

/// Caching H (Corollary 1 substituted into the definition), per-step
/// marginals, fresh Predict per term.
double NaiveCachingHeeb(const StochasticProcess& reference,
                        const StreamHistory& history, Time t0, Value v,
                        const LifetimeFn& lifetime, Time horizon);

/// HEEB joining policy computing every score with a window-truncated
/// direct sum of fresh Predict() calls — no prediction cache, no
/// PredictInto, no incremental state. The oracle for HeebJoinPolicy
/// (all modes; bit-identical runs against kDirect).
class NaiveHeebJoinPolicy final : public ScoredPolicy {
 public:
  /// Processes are not owned. `lifetime` may be null (L_exp(alpha)).
  NaiveHeebJoinPolicy(const StochasticProcess* r_process,
                      const StochasticProcess* s_process, double alpha,
                      Time horizon, const LifetimeFn* lifetime = nullptr);

  const char* name() const override { return "NAIVE-HEEB"; }

 protected:
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;

 private:
  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  ExpLifetime exp_lifetime_;
  Time horizon_;
  const LifetimeFn* lifetime_;
};

/// HEEB caching policy scoring every candidate with NaiveCachingHeeb.
/// The oracle for HeebCachingPolicy kDirect / kTimeIncremental.
class NaiveHeebCachingPolicy final : public ScoredCachingPolicy {
 public:
  NaiveHeebCachingPolicy(const StochasticProcess* reference, double alpha,
                         Time horizon, const LifetimeFn* lifetime = nullptr);

  const char* name() const override { return "NAIVE-HEEB"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override;

 private:
  const StochasticProcess* reference_;
  ExpLifetime exp_lifetime_;
  Time horizon_;
  const LifetimeFn* lifetime_;
};

}  // namespace testing
}  // namespace sjoin

#endif  // SJOIN_TESTING_NAIVE_REFERENCE_H_
