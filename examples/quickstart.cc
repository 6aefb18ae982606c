// Quickstart: join two trending sensor streams with a model-driven HEEB
// cache in ~40 lines of public API.
//
// Two sensors emit readings whose ids drift upward over time (think
// sequence numbers with jitter). We join them on the reading id with a
// small cache and compare HEEB against random eviction and the offline
// optimum.

#include <cstdio>

#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"

using namespace sjoin;

int main() {
  // 1. Describe the streams statistically: ids drift one per tick; sensor
  //    R lags one tick behind S; bounded normal jitter.
  LinearTrendProcess r(1.0, -1.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                      0.0, 2.0, -10, 10));
  LinearTrendProcess s(1.0, 0.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                     0.0, 3.0, -15, 15));

  // 2. Sample a realization (in production these arrive from the network).
  Rng rng(42);
  StreamPair pair = SampleStreamPair(r, s, /*len=*/2000, rng);

  // 3. Build a HEEB policy from the stream models. Alpha encodes the
  //    expected lifetime of a cached tuple.
  HeebJoinPolicy::Options options;
  options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
  HeebJoinPolicy heeb(&r, &s, options);

  // 4. Run the join with a 10-tuple cache.
  JoinSimulator sim({.capacity = 10, .warmup = 40});
  auto heeb_result = sim.Run(pair.r, pair.s, heeb);

  // Baselines: random eviction and the clairvoyant optimum.
  RandomPolicy rand(7, /*assumed_lifetime=*/Time{25});
  auto rand_result = sim.Run(pair.r, pair.s, rand);
  OptOfflinePolicy opt(pair.r, pair.s, 10);
  auto opt_result = sim.Run(pair.r, pair.s, opt);

  std::printf("join results from a 10-tuple cache over %zu ticks:\n",
              pair.r.size());
  std::printf("  HEEB        : %lld\n",
              static_cast<long long>(heeb_result.counted_results));
  std::printf("  RAND        : %lld\n",
              static_cast<long long>(rand_result.counted_results));
  std::printf("  OPT-offline : %lld (upper bound, knows the future)\n",
              static_cast<long long>(opt_result.counted_results));
  return 0;
}
