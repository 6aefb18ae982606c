#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/dominance_prefilter_policy.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/policies/lfd_policy.h"
#include "sjoin/policies/lru_policy.h"
#include "sjoin/policies/model_prob_policy.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/policies/scenario_optimal_policies.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/offline_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

TEST(ModelProbPolicyTest, StationaryMatchesHeebDecisions) {
  // Section 5.2: with stationary streams both are optimal — and produce
  // the same result counts (both rank by p, ties aside).
  auto dist = DiscreteDistribution::FromMasses(0, {0.45, 0.3, 0.15, 0.1});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  Rng rng(61);
  auto pair = SampleStreamPair(r, s, 500, rng);

  ModelProbPolicy model_prob(&r, &s);
  HeebJoinPolicy::Options options;
  options.alpha = 10.0;
  options.horizon = 120;
  HeebJoinPolicy heeb(&r, &s, options);

  JoinSimulator sim({.capacity = 3, .warmup = 20});
  EXPECT_EQ(sim.Run(pair.r, pair.s, model_prob).counted_results,
            sim.Run(pair.r, pair.s, heeb).counted_results);
}

TEST(ModelProbPolicyTest, MyopicUnderTrend) {
  // Under a trend, one-step greed undervalues tuples whose payoff is a
  // few steps out; HEEB should beat it.
  LinearTrendProcess r(1.0, -1.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                      0.0, 1.0, -10, 10));
  LinearTrendProcess s(1.0, 0.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                     0.0, 2.0, -15, 15));
  Rng rng(62);
  std::int64_t heeb_total = 0;
  std::int64_t greedy_total = 0;
  JoinSimulator sim({.capacity = 6, .warmup = 30});
  for (int run = 0; run < 3; ++run) {
    auto pair = SampleStreamPair(r, s, 500, rng);
    ModelProbPolicy greedy(&r, &s);
    HeebJoinPolicy::Options options;
    options.alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
    HeebJoinPolicy heeb(&r, &s, options);
    heeb_total += sim.Run(pair.r, pair.s, heeb).counted_results;
    greedy_total += sim.Run(pair.r, pair.s, greedy).counted_results;
  }
  EXPECT_GT(heeb_total, greedy_total);
}

TEST(A0CachingPolicyTest, StationaryOptimalEqualsHeeb) {
  StationaryProcess reference(
      DiscreteDistribution::FromMasses(0, {0.4, 0.3, 0.2, 0.1}));
  Rng rng(63);
  auto refs = SampleRealization(reference, 600, rng);
  A0CachingPolicy a0(&reference);
  HeebCachingPolicy::Options options;
  options.alpha = 8.0;
  options.horizon = 150;
  HeebCachingPolicy heeb(&reference, options);
  CacheSimulator sim({.capacity = 2, .warmup = 20});
  EXPECT_EQ(sim.Run(refs, a0).counted_hits,
            sim.Run(refs, heeb).counted_hits);
}

TEST(SmallestValuePolicyTest, OptimalForRightBoundedTrend) {
  // Section 5.3 caching: discarding the smallest value is the optimal
  // *online* policy (in expectation). Per realization it must stay below
  // the clairvoyant LFD, agree exactly with HEEB (whose ECB ranking is the
  // same total order by value), and beat LRU on average.
  LinearTrendProcess reference(
      1.0, 0.0, DiscreteDistribution::BoundedUniform(-6, 6));
  Rng rng(64);
  std::int64_t smallest_total = 0;
  std::int64_t lru_total = 0;
  for (int run = 0; run < 5; ++run) {
    auto refs = SampleRealization(reference, 400, rng);
    SmallestValueCachingPolicy smallest;
    LfdCachingPolicy lfd(refs);
    LruCachingPolicy lru;
    HeebCachingPolicy::Options options;
    options.alpha = 8.0;
    options.horizon = 40;
    HeebCachingPolicy heeb(&reference, options);
    CacheSimulator sim({.capacity = 5, .warmup = 0});
    auto smallest_result = sim.Run(refs, smallest);
    EXPECT_LE(smallest_result.hits, sim.Run(refs, lfd).hits) << run;
    EXPECT_EQ(smallest_result.hits, sim.Run(refs, heeb).hits) << run;
    smallest_total += smallest_result.hits;
    lru_total += sim.Run(refs, lru).hits;
  }
  EXPECT_GE(smallest_total, lru_total);
}

TEST(DistanceCachingPolicyTest, NearOptimalForZeroDriftWalk) {
  // Section 5.5: rank by distance from the current position. On sampled
  // realizations this one-shot-optimal rule should at least match HEEB's
  // walk table (they implement the same ranking) and beat random.
  RandomWalkProcess reference(
      DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  Rng rng(65);
  auto refs = SampleRealization(reference, 800, rng);

  DistanceCachingPolicy nearest;
  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kWalkTable;
  options.alpha = 10.0;
  options.horizon = 60;
  // Wide enough that every reachable candidate offset is tabulated, so the
  // two policies induce the same total order.
  options.walk_max_offset = 120;
  HeebCachingPolicy heeb(&reference, options);

  CacheSimulator sim({.capacity = 8, .warmup = 40});
  auto nearest_result = sim.Run(refs, nearest);
  auto heeb_result = sim.Run(refs, heeb);
  // Identical ranking => identical hits (ties broken the same way).
  EXPECT_EQ(nearest_result.counted_hits, heeb_result.counted_hits);
}

TEST(DominancePrefilterTest, OfflineStreamsResolveEveryDecision) {
  // With deterministic streams, joining ECBs are step functions; they are
  // often comparable, and when the dominated subset covers the eviction
  // budget the decision is optimal without the fallback.
  std::vector<Value> r = {1, 2, 3, 4, 1, 2, 3, 4, 1, 2};
  std::vector<Value> s = {4, 3, 2, 1, 4, 3, 2, 1, 4, 3};
  OfflineProcess r_process(r);
  OfflineProcess s_process(s);
  RandomPolicy fallback(1);
  DominancePrefilterPolicy policy(&r_process, &s_process, &fallback,
                                  {.horizon = 12});
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  sim.Run(r, s, policy);
  EXPECT_GT(policy.total_decisions(), 0);
  EXPECT_GT(policy.decisions_by_dominance(), 0);
}

TEST(DominancePrefilterTest, NeverWorseThanFallbackAloneOnStationary) {
  // On stationary streams all ECBs are comparable (total order by p), so
  // the prefilter resolves everything optimally.
  auto dist = DiscreteDistribution::FromMasses(0, {0.4, 0.3, 0.2, 0.1});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  Rng rng(66);
  auto pair = SampleStreamPair(r, s, 300, rng);

  RandomPolicy fallback(2);
  DominancePrefilterPolicy policy(&r, &s, &fallback, {.horizon = 40});
  RandomPolicy plain_random(2);

  JoinSimulator sim({.capacity = 3, .warmup = 10});
  auto with_prefilter = sim.Run(pair.r, pair.s, policy);
  auto random_alone = sim.Run(pair.r, pair.s, plain_random);
  EXPECT_GE(with_prefilter.counted_results, random_alone.counted_results);
  EXPECT_EQ(policy.decisions_by_dominance(), policy.total_decisions());
}

/// Fallback that keeps the newest candidates and holds the engines to
/// EngineStep::carried: when set, the cache must be the list this
/// policy returned at its previous call.
class CarriedCheckingFallback final : public ReplacementPolicy {
 public:
  const char* name() const override { return "CARRIED-CHECK"; }
  void Reset() override { last_.clear(); }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> cached;
    for (const Tuple& tuple : *ctx.cached) cached.push_back(tuple.id);
    if (ctx.carried()) {
      ++carried_calls_;
      EXPECT_EQ(cached, last_) << "step " << ctx.now;
    }
    ++calls_;
    std::vector<TupleId> ids = cached;
    for (const Tuple& tuple : *ctx.arrivals) ids.push_back(tuple.id);
    std::sort(ids.begin(), ids.end(), std::greater<>());
    ids.resize(std::min(ids.size(), ctx.capacity));
    last_ = ids;
    return ids;
  }
  int calls() const { return calls_; }
  int carried_calls() const { return carried_calls_; }

 private:
  std::vector<TupleId> last_;
  int calls_ = 0;
  int carried_calls_ = 0;
};

TEST(DominancePrefilterTest, FallbackSeesCarriedOnlyAfterItsOwnSteps) {
  // Offline streams whose ECBs cross often enough that dominance settles
  // some steps and the fallback the rest. A step the prefilter decides
  // leaves a cache the fallback did not return, so the fallback's next
  // call must not see the flag.
  Rng rng(12);
  std::vector<Value> r, s;
  for (int t = 0; t < 120; ++t) {
    r.push_back(rng.UniformInt(0, 5));
    s.push_back(rng.UniformInt(0, 5));
  }
  OfflineProcess r_process(r);
  OfflineProcess s_process(s);
  CarriedCheckingFallback fallback;
  DominancePrefilterPolicy policy(&r_process, &s_process, &fallback,
                                  {.horizon = 12});
  JoinSimulator sim({.capacity = 3, .warmup = 0});
  sim.Run(r, s, policy);
  EXPECT_GT(policy.decisions_by_dominance(), 0);
  EXPECT_GT(fallback.calls(), 0);
  EXPECT_GT(fallback.carried_calls(), 0);
  EXPECT_LT(fallback.carried_calls(), fallback.calls());
}

}  // namespace
}  // namespace sjoin
