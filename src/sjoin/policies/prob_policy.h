#ifndef SJOIN_POLICIES_PROB_POLICY_H_
#define SJOIN_POLICIES_PROB_POLICY_H_

#include <optional>
#include <unordered_map>

#include "sjoin/engine/scored_policy.h"

/// \file
/// PROB [Das, Gehrke, Riedewald 2003] — keep the tuples whose join
/// attribute values appear most frequently in the partner stream.
///
/// The original heuristic estimates the match probability from the
/// observed past; the paper shows (Section 5.2) that with stationary
/// independent streams this is optimal, while with trends it fails because
/// "new arrivals tend to be least frequently joined in the past"
/// (Section 6.3). Like RAND, it can be made lifetime-aware so expired
/// tuples go first.

namespace sjoin {

/// Frequency-based eviction.
class ProbPolicy final : public ScoredPolicy {
 public:
  explicit ProbPolicy(std::optional<Time> assumed_lifetime = std::nullopt)
      : assumed_lifetime_(assumed_lifetime) {}

  void Reset() override;

  const char* name() const override { return "PROB"; }

 protected:
  void BeginStep(const PolicyContext& ctx) override;
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;

 private:
  std::optional<Time> assumed_lifetime_;
  // Observed value frequencies per stream (index by SideIndex).
  std::unordered_map<Value, std::int64_t> counts_[2];
  Time consumed_r_ = 0;
  Time consumed_s_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_PROB_POLICY_H_
