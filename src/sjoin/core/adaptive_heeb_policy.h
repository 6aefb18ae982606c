#ifndef SJOIN_CORE_ADAPTIVE_HEEB_POLICY_H_
#define SJOIN_CORE_ADAPTIVE_HEEB_POLICY_H_

#include <memory>

#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/lane_table.h"
#include "sjoin/engine/replacement_policy.h"

/// \file
/// Adaptive-alpha HEEB — the technique the paper sketches as future work
/// (Section 5.3): "A more principled technique would be to observe the
/// average lifetime at runtime and adjust alpha adaptively."
///
/// L_exp(alpha) predicts an average cached-tuple lifetime of
/// 1/(1 - e^{-1/alpha}); this policy measures the actual residence time of
/// evicted tuples with an exponential moving average and re-derives alpha
/// whenever the estimate drifts materially, removing HEEB's one hand-tuned
/// parameter.

namespace sjoin {

/// HEEB (direct mode) with runtime-estimated alpha.
class AdaptiveHeebJoinPolicy final : public ReplacementPolicy {
 public:
  struct Options {
    /// Starting lifetime estimate (steps); must be > 1.
    double initial_lifetime = 10.0;
    /// EMA weight of a new residence observation.
    double ema_weight = 0.05;
    /// Rebuild the inner policy when alpha changes by this ratio.
    double rebuild_threshold = 0.2;
    /// Minimum observations before the first adaptation.
    int min_observations = 30;
    /// Sum-truncation horizon for the inner direct-mode HEEB.
    Time horizon = 150;
  };

  /// Processes are not owned and must outlive the policy.
  AdaptiveHeebJoinPolicy(const StochasticProcess* r_process,
                         const StochasticProcess* s_process,
                         Options options);

  void Reset() override;

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override;

  const char* name() const override { return "HEEB-ADAPTIVE"; }

  /// Current alpha (for ablation reporting).
  double current_alpha() const { return current_alpha_; }
  /// Current average-lifetime estimate.
  double lifetime_estimate() const { return lifetime_ema_; }

 private:
  void RebuildInner();

  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  Options options_;
  double lifetime_ema_;
  double current_alpha_;
  int observations_ = 0;
  std::unique_ptr<HeebJoinPolicy> inner_;
  /// True until the current inner policy has decided a step.
  bool inner_fresh_ = true;
  // This step's retained ids (per-step scratch).
  LaneTable<TupleId> retained_set_;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_ADAPTIVE_HEEB_POLICY_H_
