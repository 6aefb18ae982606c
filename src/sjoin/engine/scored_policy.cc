#include "sjoin/engine/scored_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/rank_order.h"
#include "sjoin/engine/scoring_batch.h"

namespace sjoin {

std::vector<TupleId> ScoredPolicy::SelectRetained(const PolicyContext& ctx) {
  BeginStep(ctx);
  const std::size_t total = ctx.cached->size() + ctx.arrivals->size();
  ranked_scratch_.clear();
  ranked_scratch_.reserve(total);
  // Each candidate keeps its lane (cached, then arrivals) through the
  // ranking, so EndStep and the engine's commit need not find it by id.
  // The observer branch is hoisted out of the candidate loop: an
  // observer-installed run takes the scalar per-tuple path (the observer
  // contract is every score, in serial step order), an observer-free run
  // takes the batch kernel when one is available, and the remaining scalar
  // loop carries no branch per candidate.
  std::uint32_t lane = 0;
  if (score_observer_) {
    for (const std::vector<Tuple>* tuples : {ctx.cached, ctx.arrivals}) {
      for (const Tuple& t : *tuples) {
        double score = Score(t, lane, ctx);
        score_observer_(t, score);
        ranked_scratch_.push_back({score, t.arrival, t.id, lane++});
      }
    }
  } else if (ctx.step != nullptr && ctx.step->batch != nullptr &&
             ScoringBatchEnabled() && BatchScorable()) {
    // One fused kernel call over the SoA view; lane order is the scalar
    // scoring order, so the scores are bitwise equal to the loops below.
    const CandidateBatch& batch = *ctx.step->batch;
    SJOIN_CHECK_EQ(batch.size, total);
    score_scratch_.resize(total);
    ScoreBatchInto(batch, ctx, score_scratch_.data());
    for (; lane < total; ++lane) {
      ranked_scratch_.push_back({score_scratch_[lane], batch.arrivals[lane],
                                 batch.ids[lane], lane});
    }
  } else {
    for (const Tuple& t : *ctx.cached) {
      ranked_scratch_.push_back({Score(t, lane, ctx), t.arrival, t.id, lane});
      ++lane;
    }
    for (const Tuple& t : *ctx.arrivals) {
      ranked_scratch_.push_back({Score(t, lane, ctx), t.arrival, t.id, lane});
      ++lane;
    }
  }
  // Top-k selection over last step's ranked run plus the arrivals
  // (ranked_select.h); the order is strict and total (ids are unique), so
  // the prefix is exactly what a full sort produces.
  const std::size_t keep = std::min(ctx.capacity, ranked_scratch_.size());
  RankTopK(ranked_scratch_.data(), ranked_scratch_.size(), keep,
           RankedTupleBetter);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    retained.push_back(ranked_scratch_[i].id);
  }
  if (std::vector<std::uint32_t>* lanes = ctx.retained_lanes()) {
    for (std::size_t i = 0; i < keep; ++i) {
      lanes->push_back(ranked_scratch_[i].lane);
    }
  }
  EndStep(ctx, {ranked_scratch_.data(), keep});
  return retained;
}

void ScoredPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                  const PolicyContext& ctx, double* out) {
  for (std::size_t i = 0; i < batch.size; ++i) {
    Tuple tuple{batch.ids[i], static_cast<StreamSide>(batch.sides[i]),
                batch.values[i], batch.arrivals[i]};
    out[i] = Score(tuple, static_cast<std::uint32_t>(i), ctx);
  }
}

}  // namespace sjoin
