#include "sjoin/testing/naive_reference.h"

#include <algorithm>

#include "sjoin/common/check.h"

namespace sjoin {
namespace testing {

double NaiveJoiningEcbAt(const StochasticProcess& partner,
                         const StreamHistory& partner_history, Time t0,
                         Value v, Time dt) {
  SJOIN_CHECK_GE(dt, 1);
  double sum = 0.0;
  for (Time step = 1; step <= dt; ++step) {
    sum += partner.Predict(partner_history, t0 + step).Prob(v);
  }
  return sum;
}

double NaiveCachingEcbAt(const StochasticProcess& reference,
                         const StreamHistory& history, Time t0, Value v,
                         Time dt) {
  SJOIN_CHECK_GE(dt, 1);
  double survive = 1.0;
  for (Time step = 1; step <= dt; ++step) {
    survive *= 1.0 - reference.Predict(history, t0 + step).Prob(v);
  }
  return 1.0 - survive;
}

double NaiveWindowedEcbAt(const EcbFn& base, Time arrival, Time now,
                          Time window, Time horizon, Time dt) {
  SJOIN_CHECK_GE(dt, 1);
  Time remaining = arrival + window - now;
  if (remaining <= 0) return 0.0;
  double cap = base.At(std::min(remaining, horizon));
  return std::min(base.At(dt), cap);
}

double NaiveHeebFromEcb(const EcbFn& ecb, const LifetimeFn& lifetime,
                        Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = ecb.At(1) * lifetime.At(1);
  for (Time dt = 2; dt <= horizon; ++dt) {
    h += (ecb.At(dt) - ecb.At(dt - 1)) * lifetime.At(dt);
  }
  return h;
}

double NaiveJoiningHeeb(const StochasticProcess& partner,
                        const StreamHistory& partner_history, Time t0,
                        Value v, const LifetimeFn& lifetime, Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = 0.0;
  for (Time dt = 1; dt <= horizon; ++dt) {
    h += partner.Predict(partner_history, t0 + dt).Prob(v) *
         lifetime.At(dt);
  }
  return h;
}

double NaiveCachingHeeb(const StochasticProcess& reference,
                        const StreamHistory& history, Time t0, Value v,
                        const LifetimeFn& lifetime, Time horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  double h = 0.0;
  double survive = 1.0;
  for (Time dt = 1; dt <= horizon; ++dt) {
    double p = reference.Predict(history, t0 + dt).Prob(v);
    h += survive * p * lifetime.At(dt);
    survive *= 1.0 - p;
  }
  return h;
}

NaiveHeebJoinPolicy::NaiveHeebJoinPolicy(const StochasticProcess* r_process,
                                         const StochasticProcess* s_process,
                                         double alpha, Time horizon,
                                         const LifetimeFn* lifetime)
    : r_process_(r_process),
      s_process_(s_process),
      exp_lifetime_(alpha),
      horizon_(horizon > 0 ? horizon : ExpHorizon(alpha)),
      lifetime_(lifetime) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
}

double NaiveHeebJoinPolicy::Score(const Tuple& tuple,
                                  std::uint32_t /*lane*/,
                                  const PolicyContext& ctx) {
  if (ctx.window.has_value() && !InWindow(tuple, ctx.now, ctx.window)) {
    return 0.0;
  }
  const LifetimeFn& lifetime =
      lifetime_ != nullptr ? *lifetime_
                           : static_cast<const LifetimeFn&>(exp_lifetime_);
  Time max_dt = horizon_;
  if (ctx.window.has_value()) {
    Time remaining = tuple.arrival + *ctx.window - ctx.now;
    if (remaining < max_dt) max_dt = remaining;
  }
  StreamSide partner = Partner(tuple.side);
  const StochasticProcess* process =
      partner == StreamSide::kR ? r_process_ : s_process_;
  const StreamHistory* history =
      partner == StreamSide::kR ? ctx.history_r : ctx.history_s;
  double h = 0.0;
  for (Time dt = 1; dt <= max_dt; ++dt) {
    h += process->Predict(*history, ctx.now + dt).Prob(tuple.value) *
         lifetime.At(dt);
  }
  return h;
}

NaiveHeebCachingPolicy::NaiveHeebCachingPolicy(
    const StochasticProcess* reference, double alpha, Time horizon,
    const LifetimeFn* lifetime)
    : reference_(reference),
      exp_lifetime_(alpha),
      horizon_(horizon > 0 ? horizon : ExpHorizon(alpha)),
      lifetime_(lifetime) {
  SJOIN_CHECK(reference != nullptr);
}

double NaiveHeebCachingPolicy::Score(Value v, const CachingContext& ctx) {
  const LifetimeFn& lifetime =
      lifetime_ != nullptr ? *lifetime_
                           : static_cast<const LifetimeFn&>(exp_lifetime_);
  return NaiveCachingHeeb(*reference_, *ctx.history, ctx.now, v, lifetime,
                          horizon_);
}

}  // namespace testing
}  // namespace sjoin
