#include "sjoin/core/heeb.h"

#include <algorithm>
#include <cmath>

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
                      std::span<const std::pair<Value, std::size_t>> lanes,
                      std::span<const double> lifetime,
                      DiscreteDistribution* pmf, double* survive,
                      double* out) {
  SJOIN_CHECK_GE(lifetime.size(), 1u);
  const std::size_t count = lanes.size();
  std::fill(out, out + count, 0.0);
  std::fill(survive, survive + count, 1.0);
  std::size_t first = 0;
  bool started = false;
  for (std::size_t k = 0; k < lifetime.size(); ++k) {
    reference.PredictInto(history, t0 + static_cast<Time>(k) + 1, pmf);
    if (pmf->IsEmpty()) continue;
    const Value lo = pmf->MinValue();
    const Value hi = pmf->MaxValue();
    const double* masses = pmf->masses().data();
    const double life = lifetime[k];
    // This step's support range is one contiguous run of `lanes`, which
    // starts at the first lane whose value is >= lo. The first support's
    // start is found by binary search, since it can lie anywhere in the
    // order; each later one is walked from the previous step's, which
    // costs as many lanes as the start moves.
    if (!started) {
      first = static_cast<std::size_t>(
          std::lower_bound(lanes.begin(), lanes.end(), lo,
                           [](const std::pair<Value, std::size_t>& lane,
                              Value value) { return lane.first < value; }) -
          lanes.begin());
      started = true;
    }
    while (first < count && lanes[first].first < lo) ++first;
    while (first > 0 && lanes[first - 1].first >= lo) --first;
    for (std::size_t j = first; j < count && lanes[j].first <= hi; ++j) {
      const std::size_t i = lanes[j].second;
      const double p = masses[static_cast<std::size_t>(lanes[j].first - lo)];
      out[i] += survive[j] * p * life;
      survive[j] *= 1.0 - p;
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
