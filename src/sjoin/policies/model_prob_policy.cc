#include "sjoin/policies/model_prob_policy.h"

namespace sjoin {

void ModelProbPolicy::BeginStep(const PolicyContext& ctx) {
  next_[SideIndex(StreamSide::kR)] =
      r_process_->Predict(*ctx.history_r, ctx.now + 1);
  next_[SideIndex(StreamSide::kS)] =
      s_process_->Predict(*ctx.history_s, ctx.now + 1);
}

double ModelProbPolicy::Score(const Tuple& tuple, std::uint32_t /*lane*/,
                              const PolicyContext& ctx) {
  if (!InWindow(tuple, ctx.now, ctx.window)) return -1.0;
  return next_[SideIndex(Partner(tuple.side))].Prob(tuple.value);
}

}  // namespace sjoin
