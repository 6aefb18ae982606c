#ifndef SJOIN_POLICIES_LFU_POLICY_H_
#define SJOIN_POLICIES_LFU_POLICY_H_

#include <unordered_map>
#include <vector>

#include "sjoin/engine/scored_caching_policy.h"

/// \file
/// LFU / PROB for the caching problem — evict the least frequently
/// referenced database tuple.
///
/// Section 5.2 proves that evicting the tuple with the lowest reference
/// probability is optimal for stationary independent reference streams
/// (this is the A0 algorithm of [Aho, Denning, Ullman 1971]); LFU is the
/// empirical approximation. The paper's Figure 13 runs the "perfect"
/// version, which ranks by the true long-run frequency of each value over
/// the whole reference sequence rather than the frequency observed so far.

namespace sjoin {

/// LFU on frequencies observed so far.
class LfuCachingPolicy final : public ScoredCachingPolicy {
 public:
  void Reset() override { counts_.clear(); }

  void Observe(const CachingContext& ctx) override {
    ++counts_[ctx.referenced];
  }

  const char* name() const override { return "LFU"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override {
    (void)ctx;
    auto it = counts_.find(v);
    return it == counts_.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  std::unordered_map<Value, std::int64_t> counts_;
};

/// "Perfect" LFU / PROB: ranks by the value frequencies of the complete
/// reference sequence, supplied up front (offline knowledge, like the
/// paper's Figure 13 baselines).
class PerfectLfuCachingPolicy final : public ScoredCachingPolicy {
 public:
  explicit PerfectLfuCachingPolicy(const std::vector<Value>& full_sequence);

  const char* name() const override { return "PROB(LFU)"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override {
    (void)ctx;
    auto it = frequency_.find(v);
    return it == frequency_.end() ? 0.0 : it->second;
  }

 private:
  std::unordered_map<Value, double> frequency_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_LFU_POLICY_H_
