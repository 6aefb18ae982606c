#ifndef SJOIN_POLICIES_LRU_POLICY_H_
#define SJOIN_POLICIES_LRU_POLICY_H_

#include <unordered_map>

#include "sjoin/engine/scored_caching_policy.h"

/// \file
/// LRU — evict the least recently referenced database tuple. A classic
/// approximation of the A0 algorithm [Aho, Denning, Ullman 1971]; compared
/// against HEEB on the REAL workload (Figure 13).

namespace sjoin {

/// Least-recently-used caching policy ("perfect" recency bookkeeping).
class LruCachingPolicy final : public ScoredCachingPolicy {
 public:
  void Reset() override { last_reference_.clear(); }

  void Observe(const CachingContext& ctx) override {
    last_reference_[ctx.referenced] = ctx.now;
  }

  const char* name() const override { return "LRU"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override {
    (void)ctx;
    auto it = last_reference_.find(v);
    return it == last_reference_.end()
               ? -1.0
               : static_cast<double>(it->second);
  }

 private:
  std::unordered_map<Value, Time> last_reference_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_LRU_POLICY_H_
