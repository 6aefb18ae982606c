#include "sjoin/core/adaptive_heeb_policy.h"

#include <algorithm>
#include <cmath>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/lifetime_fn.h"

namespace sjoin {

AdaptiveHeebJoinPolicy::AdaptiveHeebJoinPolicy(
    const StochasticProcess* r_process, const StochasticProcess* s_process,
    Options options)
    : r_process_(r_process),
      s_process_(s_process),
      options_(options),
      lifetime_ema_(options.initial_lifetime),
      current_alpha_(
          ExpLifetime::AlphaForAverageLifetime(options.initial_lifetime)) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
  SJOIN_CHECK_GT(options_.initial_lifetime, 1.0);
  SJOIN_CHECK_GT(options_.ema_weight, 0.0);
  SJOIN_CHECK_LE(options_.ema_weight, 1.0);
  RebuildInner();
}

void AdaptiveHeebJoinPolicy::RebuildInner() {
  HeebJoinPolicy::Options inner_options;
  inner_options.mode = HeebJoinPolicy::Mode::kDirect;
  inner_options.alpha = current_alpha_;
  inner_options.horizon = options_.horizon;
  inner_ = std::make_unique<HeebJoinPolicy>(r_process_, s_process_,
                                            inner_options);
  inner_fresh_ = true;
}

void AdaptiveHeebJoinPolicy::Reset() {
  lifetime_ema_ = options_.initial_lifetime;
  current_alpha_ =
      ExpLifetime::AlphaForAverageLifetime(options_.initial_lifetime);
  observations_ = 0;
  RebuildInner();
  inner_->Reset();
}

std::vector<TupleId> AdaptiveHeebJoinPolicy::SelectRetained(
    const PolicyContext& ctx) {
  // A rebuilt inner policy returned no list yet, so it sees no carried
  // cache on its first step.
  PolicyContext inner_ctx = ctx;
  EngineStep inner_step;
  if (ctx.step != nullptr) {
    inner_step = *ctx.step;
    inner_step.carried = ctx.step->carried && !inner_fresh_;
    inner_ctx.step = &inner_step;
  }
  inner_fresh_ = false;
  std::vector<TupleId> retained = inner_->SelectRetained(inner_ctx);

  // Observe residence times of evicted tuples (tuples that were admitted
  // at some earlier step and are not retained now). Arrivals discarded
  // on the spot were never cached and do not count toward the average
  // cached-tuple lifetime.
  retained_set_.Reserve(retained.size());
  retained_set_.Reset();
  for (TupleId id : retained) retained_set_.Insert(id, 0);
  auto is_retained = [this](TupleId id) {
    return retained_set_.Find(id) != LaneTable<TupleId>::kNoLane;
  };
  // A tuple is admitted in the step it arrives (the engines stamp arrivals
  // with arrival == now), so its arrival time is its admission time.
  for (const Tuple& tuple : *ctx.arrivals) {
    SJOIN_VALIDATE_MSG(tuple.arrival == ctx.now,
                       "an arrival is not stamped with the current step");
  }
  for (const Tuple& tuple : *ctx.cached) {
    if (is_retained(tuple.id)) continue;
    double residence =
        static_cast<double>(std::max<Time>(1, ctx.now - tuple.arrival));
    lifetime_ema_ = (1.0 - options_.ema_weight) * lifetime_ema_ +
                    options_.ema_weight * residence;
    ++observations_;
  }

  if (observations_ >= options_.min_observations) {
    double target_alpha = ExpLifetime::AlphaForAverageLifetime(
        std::max(1.5, lifetime_ema_));
    if (std::fabs(target_alpha - current_alpha_) >
        options_.rebuild_threshold * current_alpha_) {
      current_alpha_ = target_alpha;
      RebuildInner();
    }
  }
  return retained;
}

}  // namespace sjoin
