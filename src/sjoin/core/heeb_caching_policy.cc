#include "sjoin/core/heeb_caching_policy.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/model_repo.h"
#include "sjoin/stochastic/random_walk_process.h"

namespace sjoin {

HeebCachingPolicy::HeebCachingPolicy(const StochasticProcess* reference,
                                     Options options)
    : reference_(reference),
      options_(std::move(options)),
      exp_lifetime_(options_.alpha),
      horizon_(options_.horizon > 0 ? options_.horizon
                                    : ExpHorizon(options_.alpha)) {
  if (options_.mode == Mode::kDirect) {
    lifetime_flat_ = LifetimeTable(
        options_.lifetime != nullptr
            ? *options_.lifetime
            : static_cast<const LifetimeFn&>(exp_lifetime_),
        horizon_);
  }
  switch (options_.mode) {
    case Mode::kDirect:
      SJOIN_CHECK(reference_ != nullptr);
      break;
    case Mode::kTimeIncremental:
      SJOIN_CHECK(reference_ != nullptr);
      SJOIN_CHECK_MSG(reference_->IsIndependent(),
                      "incremental caching HEEB requires independent "
                      "reference variables");
      SJOIN_CHECK_MSG(options_.lifetime == nullptr,
                      "incremental caching HEEB is defined for L_exp only");
      break;
    case Mode::kWalkTable: {
      const auto* walk = dynamic_cast<const RandomWalkProcess*>(reference_);
      SJOIN_CHECK_MSG(walk != nullptr,
                      "walk-table caching HEEB requires a random-walk "
                      "reference");
      if (options_.lifetime == nullptr) {
        ModelRepo& repo =
            options_.repo != nullptr ? *options_.repo : ModelRepo::Global();
        walk_table_ = repo.WalkCachingHeebTable(
            *walk, options_.alpha, horizon_, options_.walk_max_offset);
      } else {
        // A caller-supplied lifetime has no content-addressable identity;
        // build privately rather than risk key collisions in the repo.
        walk_table_ = std::make_shared<const OffsetTable>(
            PrecomputeWalkCachingHeeb(*walk, *options_.lifetime, horizon_,
                                      options_.walk_max_offset));
      }
      break;
    }
    case Mode::kEvaluator:
      SJOIN_CHECK_MSG(options_.evaluator != nullptr,
                      "kEvaluator requires an evaluator function");
      break;
  }
}

void HeebCachingPolicy::Reset() {
  cached_h_.clear();
  state_time_ = -1;
  lanes_returned_ = false;
}

double HeebCachingPolicy::DirectScore(Value v,
                                      const CachingContext& ctx) const {
  const LifetimeFn& lifetime =
      options_.lifetime != nullptr
          ? *options_.lifetime
          : static_cast<const LifetimeFn&>(exp_lifetime_);
  return CachingHeeb(*reference_, *ctx.history, ctx.now, v, lifetime,
                     horizon_);
}

void HeebCachingPolicy::ScoreValues(std::span<const Value> values,
                                    const CachingContext& ctx, double* out) {
  if (options_.mode != Mode::kDirect) {
    ScoredCachingPolicy::ScoreValues(values, ctx, out);
    return;
  }
  if (survive_.capacity() < values.size()) {
    // Grow the scratch by doubling, but stop at a full cache's lanes
    // (capacity + the referenced value).
    const std::size_t lanes =
        std::max(values.size(),
                 std::min(2 * survive_.capacity(), ctx.capacity + 1));
    lanes_.reserve(lanes);
    survive_.reserve(lanes);
    returned_at_.reserve(lanes);
  }
  OrderLanes(values, ctx);
  survive_.resize(values.size());
  CachingHeebBatch(*reference_, *ctx.history, ctx.now, lanes_,
                   lifetime_flat_, &pmf_, survive_.data(), out);
}

void HeebCachingPolicy::OrderLanes(std::span<const Value> values,
                                   const CachingContext& ctx) {
  // The values are the cached list, then the referenced value on a miss.
  const std::size_t cached = ctx.hit ? values.size() : values.size() - 1;
  // The carried order holds one entry per position of the list this
  // policy returned; when ctx.cached is that list, it is this list's value
  // order.
  if (ctx.carried && lanes_returned_ && lanes_.size() == cached) {
    if constexpr (kValidationEnabled) {
      for (const auto& [value, lane] : lanes_) {
        SJOIN_VALIDATE_MSG(lane < cached && values[lane] == value,
                           "the carried-cache flag is set, but the cache is "
                           "not the list caching HEEB returned");
      }
    }
    if (!ctx.hit) {
      const Value v = values[cached];
      lanes_.insert(
          std::upper_bound(lanes_.begin(), lanes_.end(), v,
                           [](Value value, const auto& lane) {
                             return value < lane.first;
                           }),
          {v, cached});
    }
    return;
  }
  lanes_.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    lanes_[i] = {values[i], i};
  }
  std::sort(lanes_.begin(), lanes_.end());
}

void HeebCachingPolicy::EndStep(
    const CachingContext& ctx,
    const std::vector<std::uint32_t>& retained_lanes) {
  (void)ctx;
  if (options_.mode != Mode::kDirect) return;
  // Keep the retained lanes in value order, renumbered to their index in
  // the returned list.
  constexpr std::uint32_t kDropped = ~std::uint32_t{0};
  returned_at_.assign(lanes_.size(), kDropped);
  for (std::size_t i = 0; i < retained_lanes.size(); ++i) {
    returned_at_[retained_lanes[i]] = static_cast<std::uint32_t>(i);
  }
  std::size_t kept = 0;
  for (const auto& [value, lane] : lanes_) {
    if (returned_at_[lane] != kDropped) {
      lanes_[kept++] = {value, returned_at_[lane]};
    }
  }
  lanes_.resize(kept);
  lanes_returned_ = true;
}

void HeebCachingPolicy::AdvanceIncremental(const CachingContext& ctx) {
  // Corollary 4: advance the stored H values to the current time:
  // H_t = (e^{1/alpha} H_{t-1} - P_t) / (1 - P_t), P_t = Pr{X_t = v}.
  const Time gap = ctx.now - state_time_;
  const double e = std::exp(1.0 / options_.alpha);
  // One reference pmf per elapsed step, shared by every value that advances
  // incrementally. Once the gap reaches the refresh interval, every value
  // re-anchors instead and none is needed.
  if (gap < options_.refresh_interval) {
    advance_pmfs_.resize(static_cast<std::size_t>(gap));
    for (Time step = 1; step <= gap; ++step) {
      reference_->PredictInto(
          *ctx.history, state_time_ + step,
          &advance_pmfs_[static_cast<std::size_t>(step - 1)]);
    }
  }
  for (auto& [value, state] : cached_h_) {
    state.updates_since_refresh += gap;
    if (state.updates_since_refresh >= options_.refresh_interval) {
      // Re-anchor: the recurrence is an unstable iteration whose error
      // grows by e^{1/alpha}/(1-p) per step.
      state.h = DirectScore(value, ctx);
      state.updates_since_refresh = 0;
      continue;
    }
    for (Time step = 1; step <= gap; ++step) {
      double p =
          advance_pmfs_[static_cast<std::size_t>(step - 1)].Prob(value);
      if (p >= 1.0 - 1e-9) {
        // Deterministic reference (p = 1): the recurrence divides by zero;
        // recompute directly instead.
        state.h = DirectScore(value, ctx);
        state.updates_since_refresh = 0;
        break;
      }
      state.h = (e * state.h - p) / (1.0 - p);
      if (state.h < 0.0) state.h = 0.0;  // Guard truncation drift.
    }
  }
  // Drop values no longer cached (and not the current candidate): one
  // membership pass stamps every cached value's entry, then one sweep
  // erases the unstamped ones.
  for (Value value : *ctx.cached) {
    auto it = cached_h_.find(value);
    if (it != cached_h_.end()) it->second.seen = ctx.now;
  }
  std::erase_if(cached_h_, [&](const auto& entry) {
    return entry.first != ctx.referenced && entry.second.seen != ctx.now;
  });
}

double HeebCachingPolicy::Score(Value v, const CachingContext& ctx) {
  switch (options_.mode) {
    case Mode::kDirect:
      break;  // Scored by ScoreValues' kernel only.
    case Mode::kWalkTable:
      return walk_table_->At(v - ctx.history->back());
    case Mode::kEvaluator:
      return options_.evaluator(v, ctx.history->back());
    case Mode::kTimeIncremental: {
      if (state_time_ >= 0 && state_time_ < ctx.now) AdvanceIncremental(ctx);
      state_time_ = ctx.now;
      auto it = cached_h_.find(v);
      if (it != cached_h_.end()) return it->second.h;
      double h = DirectScore(v, ctx);
      cached_h_[v] = IncrementalState{h, 0, ctx.now};
      return h;
    }
  }
  SJOIN_CHECK_MSG(false, "kDirect scores through ScoreValues only");
  return 0.0;
}

}  // namespace sjoin
