#include "sjoin/engine/scored_caching_policy.h"

#include <algorithm>

#include "sjoin/engine/rank_order.h"
#include "sjoin/engine/ranked_select.h"

namespace sjoin {

std::vector<Value> ScoredCachingPolicy::SelectRetained(
    const CachingContext& ctx) {
  const std::vector<std::uint32_t>& lanes = SelectRetainedLanes(ctx);
  std::vector<Value> retained;
  retained.reserve(lanes.size());
  for (std::uint32_t lane : lanes) {
    retained.push_back(lane < ctx.cached->size() ? (*ctx.cached)[lane]
                                                 : ctx.referenced);
  }
  return retained;
}

const std::vector<std::uint32_t>& ScoredCachingPolicy::SelectRetainedLanes(
    const CachingContext& ctx) {
  // Candidate lanes in scoring order: cached values, then the referenced
  // value on a miss. A hit scores the cached list in place.
  std::span<const Value> values(*ctx.cached);
  if (!ctx.hit) {
    values_.assign(ctx.cached->begin(), ctx.cached->end());
    values_.push_back(ctx.referenced);
    values = values_;
  }
  scores_.resize(values.size());
  ScoreValues(values, ctx, scores_.data());
  candidates_.clear();
  for (std::uint32_t lane = 0; lane < values.size(); ++lane) {
    const Value v = values[lane];
    if (score_observer_) score_observer_(v, scores_[lane]);
    // The referenced value's lane: cached on a hit, the last on a miss.
    candidates_.push_back({scores_[lane], v == ctx.referenced, lane, v});
  }
  auto better = [](const Candidate& a, const Candidate& b) {
    // rank_order.h with (major, minor) = (is-referenced, value): ties
    // break toward the referenced value, then toward larger values.
    return RankOrderBetter(a.score, static_cast<int>(a.is_referenced),
                           a.value, b.score,
                           static_cast<int>(b.is_referenced), b.value);
  };
  // RankTopK (ranked_select.h): the order is strict and total (values are
  // unique within cached ∪ {referenced}), so the ranked prefix equals a
  // full sort's prefix.
  const std::size_t keep = std::min(ctx.capacity, candidates_.size());
  RankTopK(candidates_.data(), candidates_.size(), keep, better);
  retained_lanes_.clear();
  for (std::size_t i = 0; i < keep; ++i) {
    retained_lanes_.push_back(candidates_[i].lane);
  }
  EndStep(ctx, retained_lanes_);
  return retained_lanes_;
}

void ScoredCachingPolicy::ScoreValues(std::span<const Value> values,
                                      const CachingContext& ctx,
                                      double* out) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = Score(values[i], ctx);
  }
}

}  // namespace sjoin
