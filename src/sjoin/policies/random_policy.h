#ifndef SJOIN_POLICIES_RANDOM_POLICY_H_
#define SJOIN_POLICIES_RANDOM_POLICY_H_

#include <optional>

#include "sjoin/common/rng.h"
#include "sjoin/engine/scored_policy.h"

/// \file
/// RAND — discard tuples uniformly at random (Section 6.2).
///
/// Following the paper's experimental setup, RAND can be made aware of an
/// assumed tuple lifetime ("sliding window"): tuples whose age exceeds it
/// are discarded first, since they can no longer contribute results.

namespace sjoin {

/// Random eviction, optionally lifetime-aware.
class RandomPolicy final : public ScoredPolicy {
 public:
  /// `assumed_lifetime`: if set, tuples older than this many steps score
  /// below every live tuple and are discarded first (the paper derives it
  /// from the noise bound in the TOWER/ROOF/FLOOR configurations).
  explicit RandomPolicy(std::uint64_t seed,
                        std::optional<Time> assumed_lifetime = std::nullopt)
      : rng_(seed), seed_(seed), assumed_lifetime_(assumed_lifetime) {}

  void Reset() override { rng_ = Rng(seed_); }

  const char* name() const override { return "RAND"; }

 protected:
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;

 private:
  Rng rng_;
  std::uint64_t seed_;
  std::optional<Time> assumed_lifetime_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_RANDOM_POLICY_H_
