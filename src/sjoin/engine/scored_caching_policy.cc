#include "sjoin/engine/scored_caching_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/rank_order.h"
#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/scoring_batch.h"

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
  candidates_.clear();
  candidates_.reserve(ctx.cached->size() + 1);
  // Candidate lanes in scoring order: cached values, then the referenced
  // value on a miss.
  auto lane = [&] { return static_cast<std::uint32_t>(candidates_.size()); };
  // Observer branch hoisted out of the loop, as in ScoredPolicy: observer
  // runs stay on the scalar path, observer-free runs use the batch kernel
  // when the subclass has one.
  if (score_observer_) {
    for (Value v : *ctx.cached) {
      double score = Score(v, ctx);
      score_observer_(v, score);
      candidates_.push_back({score, v == ctx.referenced, lane(), v});
    }
    if (!ctx.hit) {
      double score = Score(ctx.referenced, ctx);
      score_observer_(ctx.referenced, score);
      candidates_.push_back({score, true, lane(), ctx.referenced});
    }
  } else if (ScoringBatchEnabled() && BatchScorable()) {
    // Values-only SoA batch: cached values in cache order, then the
    // referenced value on a miss — the scalar scoring order.
    batch_values_.assign(ctx.cached->begin(), ctx.cached->end());
    if (!ctx.hit) batch_values_.push_back(ctx.referenced);
    batch_scores_.resize(batch_values_.size());
    CandidateBatch batch;
    batch.size = batch_values_.size();
    batch.values = batch_values_.data();
    ScoreBatchInto(batch, ctx, batch_scores_.data());
    for (std::size_t i = 0; i < ctx.cached->size(); ++i) {
      candidates_.push_back(
          {batch_scores_[i], batch_values_[i] == ctx.referenced, lane(),
           batch_values_[i]});
    }
    if (!ctx.hit) {
      candidates_.push_back(
          {batch_scores_.back(), true, lane(), ctx.referenced});
    }
  } else {
    for (Value v : *ctx.cached) {
      candidates_.push_back({Score(v, ctx), v == ctx.referenced, lane(), v});
    }
    if (!ctx.hit) {
      candidates_.push_back(
          {Score(ctx.referenced, ctx), true, lane(), ctx.referenced});
    }
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

void ScoredCachingPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                         const CachingContext& ctx,
                                         double* out) {
  for (std::size_t i = 0; i < batch.size; ++i) {
    out[i] = Score(batch.values[i], ctx);
  }
}

}  // namespace sjoin
