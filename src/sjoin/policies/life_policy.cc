#include "sjoin/policies/life_policy.h"

#include <algorithm>

namespace sjoin {

void LifePolicy::Reset() {
  counts_[0].clear();
  counts_[1].clear();
  consumed_r_ = 0;
  consumed_s_ = 0;
}

void LifePolicy::BeginStep(const PolicyContext& ctx) {
  while (consumed_r_ < ctx.history_r->size()) {
    ++counts_[SideIndex(StreamSide::kR)][ctx.history_r->at(consumed_r_)];
    ++consumed_r_;
  }
  while (consumed_s_ < ctx.history_s->size()) {
    ++counts_[SideIndex(StreamSide::kS)][ctx.history_s->at(consumed_s_)];
    ++consumed_s_;
  }
}

double LifePolicy::Score(const Tuple& tuple, std::uint32_t /*lane*/,
                         const PolicyContext& ctx) {
  Time effective_lifetime = lifetime_;
  if (ctx.window.has_value()) {
    effective_lifetime = std::min(effective_lifetime, *ctx.window);
  }
  Time remaining = effective_lifetime - (ctx.now - tuple.arrival);
  if (remaining <= 0) return -1.0;

  const auto& partner_counts = counts_[SideIndex(Partner(tuple.side))];
  auto it = partner_counts.find(tuple.value);
  std::int64_t count = it == partner_counts.end() ? 0 : it->second;
  Time seen = tuple.side == StreamSide::kR ? consumed_s_ : consumed_r_;
  double prob = seen == 0 ? 0.0
                          : static_cast<double>(count) /
                                static_cast<double>(seen);
  return prob * static_cast<double>(remaining);
}

void LifePolicy::ScoreBatchInto(const CandidateBatch& batch,
                                const PolicyContext& ctx, double* out) {
  Time effective_lifetime = lifetime_;
  if (ctx.window.has_value()) {
    effective_lifetime = std::min(effective_lifetime, *ctx.window);
  }
  const std::unordered_map<Value, std::int64_t>* partner_counts[2] = {
      &counts_[SideIndex(Partner(StreamSide::kR))],
      &counts_[SideIndex(Partner(StreamSide::kS))]};
  const Time seen[2] = {consumed_s_, consumed_r_};
  for (std::size_t i = 0; i < batch.size; ++i) {
    const Time remaining =
        effective_lifetime - (ctx.now - batch.arrivals[i]);
    if (remaining <= 0) {
      out[i] = -1.0;
      continue;
    }
    const int s = batch.sides[i];
    auto it = partner_counts[s]->find(batch.values[i]);
    const std::int64_t count =
        it == partner_counts[s]->end() ? 0 : it->second;
    const double prob = seen[s] == 0 ? 0.0
                                     : static_cast<double>(count) /
                                           static_cast<double>(seen[s]);
    out[i] = prob * static_cast<double>(remaining);
  }
}

}  // namespace sjoin
