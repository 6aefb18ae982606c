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

}  // namespace sjoin
