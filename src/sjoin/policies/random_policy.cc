#include "sjoin/policies/random_policy.h"

namespace sjoin {

double RandomPolicy::Score(const Tuple& tuple, std::uint32_t /*lane*/,
                           const PolicyContext& ctx) {
  Time age = ctx.now - tuple.arrival;
  bool expired =
      (assumed_lifetime_.has_value() && age > *assumed_lifetime_) ||
      !InWindow(tuple, ctx.now, ctx.window);
  // Expired tuples rank strictly below all live tuples; among live tuples
  // (and among expired ones) the ordering is uniformly random.
  double base = expired ? 0.0 : 1.0;
  return base + rng_.UniformReal();
}

}  // namespace sjoin
