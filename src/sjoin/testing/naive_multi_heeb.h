#ifndef SJOIN_TESTING_NAIVE_MULTI_HEEB_H_
#define SJOIN_TESTING_NAIVE_MULTI_HEEB_H_

#include <functional>
#include <utility>
#include <vector>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/stochastic/process.h"

/// \file
/// The Appendix C multi-join HEEB computed the definitional way, as the
/// differential oracle for MultiHeebPolicy: every candidate's score is
///   H_x = Σ_{p ∈ partners(stream(x))} Σ_{Δt=1}^{max Δt}
///         Pr{X^p_{now+Δt} = v_x} · L(Δt)
/// with a fresh Predict() and a fresh ExpLifetime::At per term, each
/// partner's inner sum kept in its own subtotal and the subtotals added in
/// PartnersOf order, and the retained set taken from a full std::sort. No
/// prediction reuse, no key sharing, no partial selection. Keep it dumb:
/// its only job is to be obviously correct, so the optimized policy must
/// agree with it bit for bit.

namespace sjoin {
namespace testing {

class NaiveMultiHeebPolicy final : public EnginePolicy {
 public:
  /// `processes[s]` models stream s; `topology` supplies PartnersOf. Not
  /// owned.
  NaiveMultiHeebPolicy(std::vector<const StochasticProcess*> processes,
                       const StreamTopology* topology, double alpha,
                       Time horizon);

  void Reset() override {}
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override;
  const char* name() const override { return "NAIVE-MULTI-HEEB"; }

  /// Receives every candidate's score, cached tuples first, then arrivals
  /// (the MultiHeebPolicy observer order).
  using ScoreObserver = std::function<void(const StreamTuple&, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

 private:
  double Score(const StreamTuple& tuple, const EngineContext& ctx) const;

  std::vector<const StochasticProcess*> processes_;
  const StreamTopology* topology_;
  ExpLifetime lifetime_;
  Time horizon_;
  ScoreObserver score_observer_;
};

}  // namespace testing
}  // namespace sjoin

#endif  // SJOIN_TESTING_NAIVE_MULTI_HEEB_H_
