#ifndef SJOIN_CORE_HEEB_H_
#define SJOIN_CORE_HEEB_H_

#include <span>

#include "sjoin/common/types.h"
#include "sjoin/core/ecb.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The Heuristic of Estimated Expected Benefit, H_x (Section 4.3).
///
/// H_x = B_x(1) L_x(1) + Σ_{Δt>=2} (B_x(Δt) - B_x(Δt-1)) L_x(Δt):
/// the expected total benefit of caching x, weighting the benefit earned
/// at each future step by the estimated probability that x is still cached
/// then. Tuples with the lowest H are discarded. These free functions give
/// the definitional computations; the policies in heeb_policy.h /
/// heeb_caching_policy.h apply them with the efficient implementations of
/// Section 4.4.

namespace sjoin {

/// H from an explicit ECB and lifetime function — the literal Section 4.3
/// definition, truncated at `horizon`.
double HeebFromEcb(const EcbFn& ecb, const LifetimeFn& lifetime,
                   Time horizon);

/// Joining form (Lemma 1 applied to the definition):
/// H = Σ_{Δt=1..horizon} Pr{X^partner_{t0+Δt} = v | x̄} L(Δt).
double JoiningHeeb(const StochasticProcess& partner,
                   const StreamHistory& partner_history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon);

/// Caching form (Corollary 1 applied to the definition):
/// H = Σ Pr{(X_{t0+Δt} = v) ∩ (no earlier reference) | x̄} L(Δt),
/// computed with per-step marginals — exact for independent-step reference
/// processes. For history-dependent references use the first-passage
/// computations in precompute.h.
double CachingHeeb(const StochasticProcess& reference,
                   const StreamHistory& history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon);

/// Batched caching form: scores `count` values against the same reference
/// and history in one pass, truncated at horizon = lifetime.size() with
/// lifetime[dt - 1] = L(dt) (see LifetimeTable). One predictive pmf per
/// step is shared across every lane (PredictInto — allocation-free in
/// steady state), and each step touches only the lanes whose value lies in
/// that pmf's support range: the lanes are sorted by value once per call,
/// and each step walks the sorted run from the pmf's MinValue to its
/// MaxValue. Skipping the other lanes is exact, because a p = 0.0 step adds
/// +0.0 to out[i] (which is never -0.0) and multiplies survive by 1.0.
/// Each lane still accumulates in dt-ascending order with the same
/// operations as CachingHeeb, so out[i] is bit-identical to
/// CachingHeeb(reference, history, t0, values[i], L, lifetime.size()).
void CachingHeebBatch(const StochasticProcess& reference,
                      const StreamHistory& history, Time t0,
                      const Value* values, std::size_t count,
                      std::span<const double> lifetime, double* out);

/// A horizon beyond which L_exp(α) contributions are below `epsilon` even
/// for per-step probability 1; α ln(α/ε) rounded up, at least 1.
Time ExpHorizon(double alpha, double epsilon = 1e-9);

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_H_
