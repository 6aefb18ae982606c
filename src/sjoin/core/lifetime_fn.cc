#include "sjoin/core/lifetime_fn.h"

#include <algorithm>
#include <cmath>

#include "sjoin/common/check.h"

namespace sjoin {

ExpLifetime::ExpLifetime(double alpha) : alpha_(alpha) {
  SJOIN_CHECK_GT(alpha, 0.0);
}

double ExpLifetime::At(Time dt) const {
  return std::exp(-static_cast<double>(dt) / alpha_);
}

double ExpLifetime::AlphaForAverageLifetime(double lifetime) {
  SJOIN_CHECK_GT(lifetime, 1.0);
  // 1/(1 - e^{-1/alpha}) = lifetime  =>  alpha = -1 / ln(1 - 1/lifetime).
  return -1.0 / std::log(1.0 - 1.0 / lifetime);
}

std::vector<double> LifetimeTable(const LifetimeFn& lifetime, Time horizon) {
  std::vector<double> table;
  table.reserve(static_cast<std::size_t>(std::max<Time>(horizon, 0)));
  for (Time dt = 1; dt <= horizon; ++dt) table.push_back(lifetime.At(dt));
  return table;
}

}  // namespace sjoin
