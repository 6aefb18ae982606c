#include "sjoin/core/heeb.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sjoin/common/check.h"

namespace sjoin {

double HeebFromEcb(const EcbFn& ecb, const LifetimeFn& lifetime,
                   Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = ecb.At(1) * lifetime.At(1);
  double prev = ecb.At(1);
  for (Time dt = 2; dt <= horizon; ++dt) {
    double cur = ecb.At(dt);
    h += (cur - prev) * lifetime.At(dt);
    prev = cur;
  }
  return h;
}

double JoiningHeeb(const StochasticProcess& partner,
                   const StreamHistory& partner_history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = 0.0;
  DiscreteDistribution pmf;  // Reused across steps; PredictInto == Predict.
  for (Time dt = 1; dt <= horizon; ++dt) {
    partner.PredictInto(partner_history, t0 + dt, &pmf);
    h += pmf.Prob(v) * lifetime.At(dt);
  }
  return h;
}

double CachingHeeb(const StochasticProcess& reference,
                   const StreamHistory& history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = 0.0;
  double survive = 1.0;  // Pr{no reference during [t0+1, t0+dt-1]}.
  DiscreteDistribution pmf;  // Reused across steps; PredictInto == Predict.
  for (Time dt = 1; dt <= horizon; ++dt) {
    reference.PredictInto(history, t0 + dt, &pmf);
    double p = pmf.Prob(v);
    h += survive * p * lifetime.At(dt);
    survive *= 1.0 - p;
  }
  return h;
}

void CachingHeebBatch(const StochasticProcess& reference,
                      const StreamHistory& history, Time t0,
                      const Value* values, std::size_t count,
                      std::span<const double> lifetime, double* out) {
  SJOIN_CHECK_GE(lifetime.size(), 1u);
  std::fill(out, out + count, 0.0);
  std::vector<double> survive(count, 1.0);
  // (value, lane) in value order: each step's support range is one
  // contiguous run of this array.
  std::vector<std::pair<Value, std::size_t>> lanes(count);
  for (std::size_t i = 0; i < count; ++i) lanes[i] = {values[i], i};
  std::sort(lanes.begin(), lanes.end());
  DiscreteDistribution pmf;
  for (std::size_t k = 0; k < lifetime.size(); ++k) {
    reference.PredictInto(history, t0 + static_cast<Time>(k) + 1, &pmf);
    if (pmf.IsEmpty()) continue;
    const Value lo = pmf.MinValue();
    const Value hi = pmf.MaxValue();
    const double* masses = pmf.masses().data();
    const double life = lifetime[k];
    for (auto it = std::lower_bound(lanes.begin(), lanes.end(),
                                    std::pair<Value, std::size_t>{lo, 0});
         it != lanes.end() && it->first <= hi; ++it) {
      const std::size_t i = it->second;
      const double p = masses[static_cast<std::size_t>(it->first - lo)];
      out[i] += survive[i] * p * life;
      survive[i] *= 1.0 - p;
    }
  }
}

Time ExpHorizon(double alpha, double epsilon) {
  SJOIN_CHECK_GT(alpha, 0.0);
  SJOIN_CHECK_GT(epsilon, 0.0);
  double h = alpha * std::log(alpha / epsilon);
  return std::max<Time>(1, static_cast<Time>(std::ceil(h)));
}

}  // namespace sjoin
