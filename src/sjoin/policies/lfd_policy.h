#ifndef SJOIN_POLICIES_LFD_POLICY_H_
#define SJOIN_POLICIES_LFD_POLICY_H_

#include <unordered_map>
#include <vector>

#include "sjoin/engine/scored_caching_policy.h"

/// \file
/// LFD (Longest Forward Distance) — Belady's optimal offline caching policy
/// [Belady 1966]: evict the tuple whose next reference is farthest in the
/// future. Section 5.1 rederives its optimality from ECB dominance; the
/// REAL experiment (Figure 13) uses it as the offline yardstick.

namespace sjoin {

/// Offline optimal caching policy; requires the full reference sequence.
class LfdCachingPolicy final : public ScoredCachingPolicy {
 public:
  explicit LfdCachingPolicy(const std::vector<Value>& full_sequence);

  const char* name() const override { return "LFD"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override;

 private:
  /// Reference times per value, ascending.
  std::unordered_map<Value, std::vector<Time>> reference_times_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_LFD_POLICY_H_
