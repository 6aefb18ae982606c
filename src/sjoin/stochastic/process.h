#ifndef SJOIN_STOCHASTIC_PROCESS_H_
#define SJOIN_STOCHASTIC_PROCESS_H_

#include <memory>

#include "sjoin/common/rng.h"
#include "sjoin/common/types.h"
#include "sjoin/stochastic/discrete_distribution.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The stochastic-process abstraction of Section 2.
///
/// Each input stream S is a discrete-time stochastic process
/// {X_t^S | t = 0, 1, ...} of join-attribute values. Replacement policies
/// receive the process descriptions ("known or observed statistical
/// properties of input streams") and query predictive distributions
/// Pr{X_t = v | x̄_{t0}} through this interface.

namespace sjoin {

/// Abstract stream model. Implementations are immutable and cheap to share;
/// a policy and a simulator may hold the same process object.
///
/// Predict, PredictInto and SampleNext may read only the history's size()
/// and its last StreamHistory::kTail values (at() aborts on anything
/// older); a model that conditions on a longer past must carry its own
/// summary of it.
class StochasticProcess {
 public:
  virtual ~StochasticProcess() = default;

  /// Predictive pmf of X_t conditioned on the observed history. Requires
  /// t >= history.size() (the value at times < size() is already observed).
  /// Implementations may also be queried with shorter histories than the
  /// true one when a policy deliberately conditions on less information.
  virtual DiscreteDistribution Predict(const StreamHistory& history,
                                       Time t) const = 0;

  /// Predict() writing into an existing distribution. Semantically
  /// identical to `*out = Predict(history, t)`; hot callers (HEEB rebuilds
  /// horizon-many pmfs per step) use it so implementations can reuse
  /// `out`'s buffer instead of allocating. The default delegates to
  /// Predict(); processes whose pmf is a shift of a stored one override it
  /// allocation-free.
  virtual void PredictInto(const StreamHistory& history, Time t,
                           DiscreteDistribution* out) const;

  /// Draws the value at time history.size() (the next arrival) and is used
  /// by samplers to generate realizations. The default draws from
  /// Predict(history, history.size()).
  virtual Value SampleNext(const StreamHistory& history, Rng& rng) const;

  /// True when the per-step random variables are mutually independent, so
  /// Predict ignores the history. Enables the time- and value-incremental
  /// HEEB computations of Section 4.4.
  virtual bool IsIndependent() const = 0;

  virtual std::unique_ptr<StochasticProcess> Clone() const = 0;
};

}  // namespace sjoin

#endif  // SJOIN_STOCHASTIC_PROCESS_H_
