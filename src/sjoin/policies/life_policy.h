#ifndef SJOIN_POLICIES_LIFE_POLICY_H_
#define SJOIN_POLICIES_LIFE_POLICY_H_

#include <unordered_map>

#include "sjoin/engine/scored_policy.h"

/// \file
/// LIFE [Das, Gehrke, Riedewald 2003] — rank tuples by estimated match
/// probability times remaining lifetime.
///
/// LIFE needs a notion of tuple lifetime. The paper's experiments derive it
/// from the sliding window (or, for the trend configurations, from the
/// noise bound): a tuple that arrived at time a has remaining lifetime
/// max(0, lifetime - (now - a)). Section 7 shows why p(x)·l(x) can be too
/// pessimistic: it assumes nothing better will arrive during the tuple's
/// whole remaining life.

namespace sjoin {

/// Probability x lifetime eviction.
class LifePolicy final : public ScoredPolicy {
 public:
  /// `lifetime`: assumed total lifetime of a tuple, in time steps. When the
  /// simulator runs with sliding-window semantics, the effective lifetime
  /// is the smaller of this and the window.
  explicit LifePolicy(Time lifetime) : lifetime_(lifetime) {}

  void Reset() override;

  const char* name() const override { return "LIFE"; }

 protected:
  void BeginStep(const PolicyContext& ctx) override;
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;

 private:
  Time lifetime_;
  std::unordered_map<Value, std::int64_t> counts_[2];
  Time consumed_r_ = 0;
  Time consumed_s_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_LIFE_POLICY_H_
