#include "sjoin/engine/scored_policy.h"

#include <algorithm>

#include "sjoin/engine/rank_order.h"

namespace sjoin {

std::vector<TupleId> ScoredPolicy::SelectRetained(const PolicyContext& ctx) {
  BeginStep(ctx);
  const std::size_t total = ctx.cached->size() + ctx.arrivals->size();
  ranked_scratch_.clear();
  ranked_scratch_.reserve(total);
  // Each candidate keeps its lane (cached, then arrivals) through the
  // ranking, so EndStep and the engine's commit need not find it by id.
  std::uint32_t lane = 0;
  for (const std::vector<Tuple>* tuples : {ctx.cached, ctx.arrivals}) {
    for (const Tuple& t : *tuples) {
      const double score = Score(t, lane, ctx);
      if (score_observer_) score_observer_(t, score);
      ranked_scratch_.push_back({score, t.arrival, t.id, lane++});
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

}  // namespace sjoin
