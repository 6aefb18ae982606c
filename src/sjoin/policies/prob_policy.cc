#include "sjoin/policies/prob_policy.h"

namespace sjoin {

void ProbPolicy::Reset() {
  counts_[0].clear();
  counts_[1].clear();
  consumed_r_ = 0;
  consumed_s_ = 0;
}

void ProbPolicy::BeginStep(const PolicyContext& ctx) {
  // Fold newly observed values into the frequency tables.
  while (consumed_r_ < ctx.history_r->size()) {
    ++counts_[SideIndex(StreamSide::kR)][ctx.history_r->at(consumed_r_)];
    ++consumed_r_;
  }
  while (consumed_s_ < ctx.history_s->size()) {
    ++counts_[SideIndex(StreamSide::kS)][ctx.history_s->at(consumed_s_)];
    ++consumed_s_;
  }
}

double ProbPolicy::Score(const Tuple& tuple, std::uint32_t /*lane*/,
                         const PolicyContext& ctx) {
  Time age = ctx.now - tuple.arrival;
  bool expired =
      (assumed_lifetime_.has_value() && age > *assumed_lifetime_) ||
      !InWindow(tuple, ctx.now, ctx.window);
  if (expired) return -1.0;
  const auto& partner_counts = counts_[SideIndex(Partner(tuple.side))];
  auto it = partner_counts.find(tuple.value);
  std::int64_t count = it == partner_counts.end() ? 0 : it->second;
  Time seen = tuple.side == StreamSide::kR ? consumed_s_ : consumed_r_;
  if (seen == 0) return 0.0;
  return static_cast<double>(count) / static_cast<double>(seen);
}

}  // namespace sjoin
