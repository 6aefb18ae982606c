#ifndef SJOIN_CORE_HEEB_CACHING_POLICY_H_
#define SJOIN_CORE_HEEB_CACHING_POLICY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/core/precompute.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/stochastic/process.h"

/// \file
/// HEEB for the caching problem (Sections 4.3-4.4, via the reduction of
/// Section 2). The caching H_x weights first-reference probabilities:
///   H_x = Σ_{Δt} Pr{(X_{t0+Δt}=v_x) ∩ (∩_{t0<t<t0+Δt} X_t != v_x)} L(Δt).

namespace sjoin {

class ModelRepo;

/// HEEB replacement policy for stream-references-database caching.
class HeebCachingPolicy final : public ScoredCachingPolicy {
 public:
  enum class Mode {
    /// Direct truncated sum with per-step marginals; exact for
    /// independent-step reference processes (offline / stationary / trend).
    kDirect,
    /// Corollary 4: O(1) update per cached value per step. L_exp +
    /// independent reference variables.
    kTimeIncremental,
    /// Theorem 5(2) + first-passage DP: random-walk reference; h1 offset
    /// table precomputed at construction (Figure 6).
    kWalkTable,
    /// Externally precomputed evaluator h(v, x_t0) — e.g. the exact AR(1)
    /// surface table or its bicubic approximation (Figures 13, 15, 16).
    kEvaluator,
  };

  struct Options {
    Mode mode = Mode::kDirect;
    double alpha = 10.0;
    Time horizon = 0;  // 0 = derive from alpha.
    const LifetimeFn* lifetime = nullptr;  // kDirect only; not owned.
    /// kWalkTable: table half-width (offsets considered).
    Value walk_max_offset = 64;
    /// kEvaluator: h(v, last observed reference value).
    std::function<double(Value v, Value last)> evaluator;
    /// kTimeIncremental: recompute H directly after this many incremental
    /// updates. The Corollary 4 recurrence amplifies numeric error by
    /// e^{1/alpha}/(1-p) per step (an unstable fixed-point iteration), so
    /// long-cached tuples need periodic re-anchoring.
    Time refresh_interval = 24;
    /// kWalkTable: the repo the h1 table is borrowed from (not owned);
    /// nullptr = ModelRepo::Global(). A custom `lifetime` forces a
    /// private build instead.
    ModelRepo* repo = nullptr;
  };

  /// `reference` is not owned; required for all modes except kEvaluator.
  HeebCachingPolicy(const StochasticProcess* reference, Options options);

  void Reset() override;

  const char* name() const override { return "HEEB"; }

 protected:
  /// Every mode but kDirect; kDirect scores only through ScoreValues.
  double Score(Value v, const CachingContext& ctx) override;
  /// kDirect: CachingHeebBatch, which shares one predictive pmf per Δt
  /// across the step's values where CachingHeeb re-predicts per (value,
  /// Δt); bit-identical to CachingHeeb. Other modes: per-value Score().
  void ScoreValues(std::span<const Value> values, const CachingContext& ctx,
                   double* out) override;
  /// kDirect: carries the step's value order into the returned order.
  void EndStep(const CachingContext& ctx,
               const std::vector<std::uint32_t>& retained_lanes) override;

 private:
  /// CachingHeeb for one value: kTimeIncremental's first score and
  /// re-anchor.
  double DirectScore(Value v, const CachingContext& ctx) const;
  /// kDirect: fills lanes_ with the step's lanes in value order.
  void OrderLanes(std::span<const Value> values, const CachingContext& ctx);
  /// kTimeIncremental: Corollary 4 advance of every stored H from
  /// state_time_ to ctx.now, then the stale-entry sweep.
  void AdvanceIncremental(const CachingContext& ctx);

  const StochasticProcess* reference_;
  Options options_;
  ExpLifetime exp_lifetime_;
  Time horizon_;
  // Borrowed from the ModelRepo — const-shared with every other policy on
  // the same model.
  std::shared_ptr<const OffsetTable> walk_table_;
  // kDirect: L(dt) for dt = 1..horizon_ (LifetimeTable).
  std::vector<double> lifetime_flat_;
  // kDirect order and scratch, sized on first use. lanes_ is (value, lane)
  // in value order: the step's candidate lanes after ScoreValues, the
  // returned list (lane = index in the list) after EndStep, which sets
  // lanes_returned_. When ctx.carried says the returned list is this
  // miss step's cached list, OrderLanes only inserts the referenced value
  // into the carried order; any other list is sorted.
  bool lanes_returned_ = false;
  std::vector<std::pair<Value, std::size_t>> lanes_;
  std::vector<double> survive_;
  // EndStep scratch: [candidate lane] = index in the returned list.
  std::vector<std::uint32_t> returned_at_;
  // The kernel's one predictive pmf, refilled per Δt.
  DiscreteDistribution pmf_;

  // kTimeIncremental state: H per cached value at time state_time_.
  struct IncrementalState {
    double h = 0.0;
    Time updates_since_refresh = 0;
    Time seen = -1;  // Last advance time the value was found cached.
  };
  std::unordered_map<Value, IncrementalState> cached_h_;
  Time state_time_ = -1;
  // Reference pmfs per elapsed step of the current advance, [step - 1];
  // reused across advances so the rebuild does not allocate.
  std::vector<DiscreteDistribution> advance_pmfs_;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_CACHING_POLICY_H_
