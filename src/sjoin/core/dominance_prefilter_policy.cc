#include "sjoin/core/dominance_prefilter_policy.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/core/dominance.h"
#include "sjoin/core/ecb.h"
#include "sjoin/engine/tuple.h"

namespace sjoin {

DominancePrefilterPolicy::DominancePrefilterPolicy(
    const StochasticProcess* r_process, const StochasticProcess* s_process,
    ReplacementPolicy* fallback, Options options)
    : r_process_(r_process),
      s_process_(s_process),
      fallback_(fallback),
      options_(options) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
  SJOIN_CHECK(fallback != nullptr);
  SJOIN_CHECK_GE(options_.horizon, 1);
}

void DominancePrefilterPolicy::Reset() {
  fallback_->Reset();
  fallback_decided_last_ = false;
  decisions_by_dominance_ = 0;
  total_decisions_ = 0;
}

std::vector<TupleId> DominancePrefilterPolicy::SelectRetained(
    const PolicyContext& ctx) {
  std::vector<Tuple> candidates;
  candidates.reserve(ctx.cached->size() + ctx.arrivals->size());
  for (const Tuple& t : *ctx.cached) candidates.push_back(t);
  for (const Tuple& t : *ctx.arrivals) candidates.push_back(t);
  // A step this policy decides itself makes the next cache a list the
  // fallback did not return, so the fallback then sees no carried cache.
  const bool fallback_carried = fallback_decided_last_;
  fallback_decided_last_ = false;
  if (candidates.size() <= ctx.capacity) {
    std::vector<TupleId> all;
    for (const Tuple& t : candidates) all.push_back(t.id);
    return all;
  }
  ++total_decisions_;
  std::size_t discards = candidates.size() - ctx.capacity;

  // Tabulate (windowed) ECBs for every candidate.
  std::vector<TabulatedEcb> ecbs;
  ecbs.reserve(candidates.size());
  for (const Tuple& tuple : candidates) {
    const StochasticProcess* partner =
        tuple.side == StreamSide::kR ? s_process_ : r_process_;
    const StreamHistory* partner_history =
        tuple.side == StreamSide::kR ? ctx.history_s : ctx.history_r;
    TabulatedEcb base = MakeJoiningEcb(*partner, *partner_history, ctx.now,
                                       tuple.value, options_.horizon);
    if (ctx.window.has_value()) {
      ecbs.push_back(MakeWindowedEcb(base, tuple.arrival, ctx.now,
                                     *ctx.window, options_.horizon));
    } else {
      ecbs.push_back(std::move(base));
    }
  }
  std::vector<const EcbFn*> ecb_ptrs;
  ecb_ptrs.reserve(ecbs.size());
  for (const TabulatedEcb& ecb : ecbs) ecb_ptrs.push_back(&ecb);

  std::vector<std::size_t> dominated =
      FindDominatedSubset(ecb_ptrs, discards, options_.horizon);
  if (dominated.size() == discards) {
    // Corollary 2: discarding this subset is optimal; skip the heuristic.
    ++decisions_by_dominance_;
    std::unordered_set<std::size_t> drop(dominated.begin(),
                                         dominated.end());
    std::vector<TupleId> retained;
    retained.reserve(ctx.capacity);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (drop.count(i) == 0) retained.push_back(candidates[i].id);
    }
    return retained;
  }
  PolicyContext fallback_ctx = ctx;
  EngineStep fallback_step;
  if (ctx.step != nullptr) {
    fallback_step = *ctx.step;
    fallback_step.carried = ctx.step->carried && fallback_carried;
    fallback_ctx.step = &fallback_step;
  }
  fallback_decided_last_ = true;
  return fallback_->SelectRetained(fallback_ctx);
}

}  // namespace sjoin
