#include "sjoin/testing/naive_multi_heeb.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/ranked_select.h"

namespace sjoin {
namespace testing {

NaiveMultiHeebPolicy::NaiveMultiHeebPolicy(
    std::vector<const StochasticProcess*> processes,
    const StreamTopology* topology, double alpha, Time horizon)
    : processes_(std::move(processes)),
      topology_(topology),
      lifetime_(alpha),
      horizon_(horizon) {
  SJOIN_CHECK(topology_ != nullptr);
  SJOIN_CHECK_EQ(static_cast<int>(processes_.size()),
                 topology_->num_streams());
}

double NaiveMultiHeebPolicy::Score(const StreamTuple& tuple,
                                   const EngineContext& ctx) const {
  Time max_dt = horizon_;
  if (ctx.window.has_value()) {
    max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
  }
  double h = 0.0;
  for (int partner : topology_->PartnersOf(tuple.stream)) {
    const auto p = static_cast<std::size_t>(partner);
    double subtotal = 0.0;
    for (Time dt = 1; dt <= max_dt; ++dt) {
      subtotal += processes_[p]
                      ->Predict((*ctx.histories)[p], ctx.now + dt)
                      .Prob(tuple.value) *
                  lifetime_.At(dt);
    }
    h += subtotal;
  }
  return h;
}

std::vector<TupleId> NaiveMultiHeebPolicy::SelectRetained(
    const EngineContext& ctx) {
  std::vector<RankedTuple> ranked;
  for (const auto* run : {ctx.cached, ctx.arrivals}) {
    for (const StreamTuple& tuple : *run) {
      const double score = Score(tuple, ctx);
      if (score_observer_) score_observer_(tuple, score);
      ranked.push_back({score, tuple.arrival, tuple.id});
    }
  }
  std::sort(ranked.begin(), ranked.end(), RankedTupleBetter);
  std::vector<TupleId> retained;
  for (std::size_t i = 0; i < ranked.size() && i < ctx.capacity; ++i) {
    retained.push_back(ranked[i].id);
  }
  return retained;
}

}  // namespace testing
}  // namespace sjoin
