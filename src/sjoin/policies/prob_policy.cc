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

void ProbPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                const PolicyContext& ctx, double* out) {
  const bool windowed = ctx.window.has_value();
  const Time w = windowed ? *ctx.window : 0;
  const bool has_life = assumed_lifetime_.has_value();
  const Time life = has_life ? *assumed_lifetime_ : 0;
  // Per-side partner tables and consumed counts, hoisted; the quotient is
  // the same division Score() performs.
  const std::unordered_map<Value, std::int64_t>* partner_counts[2] = {
      &counts_[SideIndex(Partner(StreamSide::kR))],
      &counts_[SideIndex(Partner(StreamSide::kS))]};
  const Time seen[2] = {consumed_s_, consumed_r_};
  for (std::size_t i = 0; i < batch.size; ++i) {
    const Time age = ctx.now - batch.arrivals[i];
    if ((has_life && age > life) || (windowed && age > w)) {
      out[i] = -1.0;
      continue;
    }
    const int s = batch.sides[i];
    if (seen[s] == 0) {
      out[i] = 0.0;
      continue;
    }
    auto it = partner_counts[s]->find(batch.values[i]);
    const std::int64_t count =
        it == partner_counts[s]->end() ? 0 : it->second;
    out[i] = static_cast<double>(count) / static_cast<double>(seen[s]);
  }
}

}  // namespace sjoin
