// Failure-injection and fuzz tests: the simulators must reject malformed
// policy outputs loudly, and hold their invariants under adversarial but
// legal policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sjoin/common/rng.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

class MalformedPolicy final : public ReplacementPolicy {
 public:
  enum class Kind { kUnknownId, kDuplicateId, kOversized };
  explicit MalformedPolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "MALFORMED"; }

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    switch (kind_) {
      case Kind::kUnknownId:
        return {999999};
      case Kind::kDuplicateId: {
        TupleId id = (*ctx.arrivals)[0].id;
        return {id, id};
      }
      case Kind::kOversized: {
        std::vector<TupleId> all;
        for (const Tuple& t : *ctx.cached) all.push_back(t.id);
        for (const Tuple& t : *ctx.arrivals) all.push_back(t.id);
        return all;  // > capacity once the cache is full.
      }
    }
    return {};
  }

 private:
  Kind kind_;
};

using RobustnessDeathTest = ::testing::Test;

TEST(RobustnessDeathTest, UnknownRetainedIdAborts) {
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kUnknownId);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "not a candidate");
}

TEST(RobustnessDeathTest, DuplicateRetainedIdAborts) {
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kDuplicateId);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "twice");
}

TEST(RobustnessDeathTest, OversizedRetainedSetAborts) {
  JoinSimulator sim({.capacity = 1, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kOversized);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "retained");
}

class MalformedCachingPolicy final : public CachingPolicy {
 public:
  const char* name() const override { return "MALFORMED"; }
  std::vector<Value> SelectRetained(const CachingContext& ctx) override {
    (void)ctx;
    return {424242};  // Never a candidate.
  }
};

TEST(RobustnessDeathTest, CachingUnknownValueAborts) {
  CacheSimulator sim({.capacity = 2, .warmup = 0});
  MalformedCachingPolicy policy;
  std::vector<Value> refs = {1, 2};
  EXPECT_DEATH(sim.Run(refs, policy), "not a candidate");
}

// The engine checks below the binary façade: a raw EnginePolicy on a
// 3-stream topology, where ids are StreamTupleIdAt(3, stream, t).
class MalformedEnginePolicy final : public EnginePolicy {
 public:
  enum class Kind {
    kUnknownId,
    kDuplicateId,
    // Keeps stream 0's arrival at t = 0, evicts it at t = 1, and retains
    // it again at t = 2 — an id the commit saw one step earlier.
    kEvictedLastStep,
  };
  explicit MalformedEnginePolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "MALFORMED-ENGINE"; }

  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    const TupleId first = (*ctx.arrivals)[0].id;
    switch (kind_) {
      case Kind::kUnknownId:
        return {999999};
      case Kind::kDuplicateId:
        return {first, first};
      case Kind::kEvictedLastStep:
        if (ctx.now == 0) return {first};
        if (ctx.now == 1) return {first};
        return {StreamTupleIdAt(3, 0, 0)};
    }
    return {};
  }

 private:
  Kind kind_;
};

StreamTopology ThreeStreamPath() { return StreamTopology(3, {{0, 1}, {1, 2}}); }

TEST(RobustnessDeathTest, EngineUnknownRetainedIdAborts) {
  StreamEngine engine(ThreeStreamPath(), {.capacity = 2});
  MalformedEnginePolicy policy(MalformedEnginePolicy::Kind::kUnknownId);
  std::vector<Value> a = {1, 2}, b = {1, 3}, c = {2, 3};
  EXPECT_DEATH(engine.Run({&a, &b, &c}, policy),
               "policy retained a tuple that is not a candidate");
}

TEST(RobustnessDeathTest, EngineDuplicateRetainedIdAborts) {
  StreamEngine engine(ThreeStreamPath(), {.capacity = 2});
  MalformedEnginePolicy policy(MalformedEnginePolicy::Kind::kDuplicateId);
  std::vector<Value> a = {1, 2}, b = {1, 3}, c = {2, 3};
  EXPECT_DEATH(engine.Run({&a, &b, &c}, policy),
               "policy retained the same tuple twice");
}

TEST(RobustnessDeathTest, EngineRetainingLastStepsEvictionAborts) {
  // The evicted id was a candidate one step earlier; the commit's lane
  // table must not find it through that step's (stale) entry.
  StreamEngine engine(ThreeStreamPath(), {.capacity = 2});
  MalformedEnginePolicy policy(
      MalformedEnginePolicy::Kind::kEvictedLastStep);
  std::vector<Value> a = {1, 2, 3}, b = {1, 3, 4}, c = {2, 3, 5};
  EXPECT_DEATH(engine.Run({&a, &b, &c}, policy),
               "policy retained a tuple that is not a candidate");
}

// Legal retained ids with a bad lane report (EngineStep::
// retained_lanes): the commit trusts no lane it has not checked against
// its id, so each report aborts with the message a bad id would.
class BadLaneReportPolicy final : public EnginePolicy {
 public:
  enum class Kind { kLaneOfAnotherId, kLaneOutOfRange, kSameLaneTwice,
                    kFewerLanesThanIds };
  explicit BadLaneReportPolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "BAD-LANES"; }

  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    // Lanes are cached then arrivals; the cache is empty at t = 0.
    const auto first_lane = static_cast<std::uint32_t>(ctx.cached->size());
    const TupleId first = (*ctx.arrivals)[0].id;
    const TupleId second = (*ctx.arrivals)[1].id;
    std::vector<std::uint32_t>& lanes = *ctx.retained_lanes();
    switch (kind_) {
      case Kind::kLaneOfAnotherId:
        lanes = {first_lane + 1};
        return {first};
      case Kind::kLaneOutOfRange:
        lanes = {first_lane + 7};
        return {first};
      case Kind::kSameLaneTwice:
        lanes = {first_lane, first_lane};
        return {first, first};
      case Kind::kFewerLanesThanIds:
        lanes = {first_lane};
        return {first, second};
    }
    return {};
  }

 private:
  Kind kind_;
};

void ExpectBadLaneReportAborts(BadLaneReportPolicy::Kind kind,
                               const char* message) {
  StreamEngine engine(ThreeStreamPath(), {.capacity = 2});
  BadLaneReportPolicy policy(kind);
  std::vector<Value> a = {1, 2}, b = {1, 3}, c = {2, 3};
  EXPECT_DEATH(engine.Run({&a, &b, &c}, policy), message);
}

TEST(RobustnessDeathTest, LaneOfAnotherIdAborts) {
  ExpectBadLaneReportAborts(BadLaneReportPolicy::Kind::kLaneOfAnotherId,
                            "policy retained a tuple that is not a candidate");
}

TEST(RobustnessDeathTest, LaneOutOfRangeAborts) {
  ExpectBadLaneReportAborts(BadLaneReportPolicy::Kind::kLaneOutOfRange,
                            "policy retained a tuple that is not a candidate");
}

TEST(RobustnessDeathTest, SameLaneTwiceAborts) {
  ExpectBadLaneReportAborts(BadLaneReportPolicy::Kind::kSameLaneTwice,
                            "policy retained the same tuple twice");
}

TEST(RobustnessDeathTest, LaneCountOtherThanIdCountAborts) {
  ExpectBadLaneReportAborts(
      BadLaneReportPolicy::Kind::kFewerLanesThanIds,
      "policy reported a different number of retained lanes than retained "
      "ids");
}

// A caller that sets the carried-cache flag over a list the policy did not
// return: policies trust the flag, and a validating build re-checks it and
// aborts (other builds skip these cases).
TEST(RobustnessDeathTest, StaleCarriedFlagAbortsIncrementalHeeb) {
  if (!kValidationEnabled) GTEST_SKIP() << "needs SJOIN_VALIDATE";
  LinearTrendProcess r(1.0, 0.0, DiscreteDistribution::BoundedUniform(-3, 3));
  LinearTrendProcess s(1.0, 1.0, DiscreteDistribution::BoundedUniform(-3, 3));
  HeebJoinPolicy::Options options;
  options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
  options.alpha = 5.0;
  HeebJoinPolicy policy(&r, &s, options);
  StreamHistory history_r;
  StreamHistory history_s;
  std::vector<Tuple> cached;
  EngineStep step;
  for (Time t = 0; t < 6; ++t) {
    history_r.Append(t);
    history_s.Append(t + 1);
    std::vector<Tuple> arrivals = {
        {TupleIdAt(StreamSide::kR, t), StreamSide::kR, t, t},
        {TupleIdAt(StreamSide::kS, t), StreamSide::kS, t + 1, t}};
    PolicyContext ctx;
    ctx.now = t;
    ctx.capacity = 4;
    ctx.cached = &cached;
    ctx.arrivals = &arrivals;
    ctx.history_r = &history_r;
    ctx.history_s = &history_s;
    step.carried = t > 0;
    ctx.step = &step;
    if (t == 5) {
      // The list HEEB returned, reversed.
      std::reverse(cached.begin(), cached.end());
      EXPECT_DEATH(policy.SelectRetained(ctx), "carried-cache flag");
      return;
    }
    std::vector<Tuple> next;
    for (TupleId id : policy.SelectRetained(ctx)) {
      for (const std::vector<Tuple>* tuples : {&cached, &arrivals}) {
        for (const Tuple& tuple : *tuples) {
          if (tuple.id == id) next.push_back(tuple);
        }
      }
    }
    cached = next;
  }
}

TEST(RobustnessDeathTest, StaleCarriedFlagAbortsCachingHeeb) {
  if (!kValidationEnabled) GTEST_SKIP() << "needs SJOIN_VALIDATE";
  LinearTrendProcess reference(1.0, 0.0,
                               DiscreteDistribution::BoundedUniform(-4, 4));
  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kDirect;
  options.alpha = 5.0;
  options.horizon = 30;
  HeebCachingPolicy policy(&reference, options);
  StreamHistory history;
  std::vector<Value> cached;
  for (Time t = 0; t < 6; ++t) {
    history.Append(t);
    CachingContext ctx;
    ctx.now = t;
    ctx.capacity = 4;
    ctx.cached = &cached;
    ctx.referenced = 100 + t;  // Never cached: every step is a miss.
    ctx.history = &history;
    ctx.carried = t > 0;
    if (t == 5) {
      std::reverse(cached.begin(), cached.end());
      EXPECT_DEATH(policy.SelectRetained(ctx), "carried-cache flag");
      return;
    }
    cached = policy.SelectRetained(ctx);
  }
}

// A legal but adversarial policy: retains a uniformly random valid subset
// of random size each step.
class FuzzPolicy final : public ReplacementPolicy {
 public:
  explicit FuzzPolicy(std::uint64_t seed) : rng_(seed) {}
  const char* name() const override { return "FUZZ"; }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> pool;
    for (const Tuple& t : *ctx.cached) pool.push_back(t.id);
    for (const Tuple& t : *ctx.arrivals) pool.push_back(t.id);
    std::shuffle(pool.begin(), pool.end(), rng_.engine());
    std::size_t keep = std::min<std::size_t>(
        ctx.capacity, rng_.UniformIndex(pool.size() + 1));
    pool.resize(keep);
    return pool;
  }

 private:
  Rng rng_;
};

TEST(FuzzTest, SimulatorInvariantsHoldUnderRandomLegalPolicies) {
  Rng rng(2026);
  for (int trial = 0; trial < 15; ++trial) {
    Time len = rng.UniformInt(10, 120);
    std::vector<Value> r, s;
    for (Time t = 0; t < len; ++t) {
      r.push_back(rng.UniformInt(0, 5));
      s.push_back(rng.UniformInt(0, 5));
    }
    std::size_t capacity = static_cast<std::size_t>(rng.UniformInt(1, 6));
    JoinSimulator sim({.capacity = capacity,
                       .warmup = rng.UniformInt(0, len / 2),
                       .window = std::nullopt,
                       .track_cache_composition = true});
    FuzzPolicy fuzz(static_cast<std::uint64_t>(trial));
    auto result = sim.Run(r, s, fuzz);
    EXPECT_GE(result.total_results, 0);
    EXPECT_GE(result.total_results, result.counted_results);
    for (double fraction : result.r_fraction_by_time) {
      EXPECT_GE(fraction, 0.0);
      EXPECT_LE(fraction, 1.0);
    }
    // And no legal policy may beat the offline optimum.
    OptOfflinePolicy opt(r, s, capacity);
    auto opt_result = sim.Run(r, s, opt);
    EXPECT_GE(opt_result.total_results, result.total_results);
  }
}

TEST(FuzzTest, WindowedOptUpperBoundsWindowedPolicies) {
  LinearTrendProcess r_process(1.0, -1.0,
                               DiscreteDistribution::BoundedUniform(-6, 6));
  LinearTrendProcess s_process(1.0, 0.0,
                               DiscreteDistribution::BoundedUniform(-8, 8));
  Rng rng(7);
  for (Time window : {3, 8, 20}) {
    auto pair = SampleStreamPair(r_process, s_process, 200, rng);
    JoinSimulator sim({.capacity = 4, .warmup = 0, .window = window});
    OptOfflinePolicy opt(pair.r, pair.s, 4, window);
    auto opt_result = sim.Run(pair.r, pair.s, opt);

    RandomPolicy rand(3);
    ProbPolicy prob;
    EXPECT_GE(opt_result.total_results,
              sim.Run(pair.r, pair.s, rand).total_results)
        << "window " << window;
    EXPECT_GE(opt_result.total_results,
              sim.Run(pair.r, pair.s, prob).total_results)
        << "window " << window;
  }
}

TEST(FuzzTest, ReductionHoldsForModelDrivenCachingPolicy) {
  // Theorem 1 with HEEB as the caching policy (stationary model).
  StationaryProcess reference(
      DiscreteDistribution::FromMasses(0, {0.4, 0.25, 0.2, 0.15}));
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    auto refs = SampleRealization(reference, 150, rng);
    HeebCachingPolicy::Options options;
    options.alpha = 6.0;
    options.horizon = 80;
    HeebCachingPolicy heeb(&reference, options);

    CacheSimulator cache_sim({.capacity = 2, .warmup = 0});
    auto cache_result = cache_sim.Run(refs, heeb);

    CachingReduction reduction(refs);
    ReductionJoinPolicy join_policy(&reduction, &heeb);
    JoinSimulator join_sim({.capacity = 2, .warmup = 0});
    auto join_result =
        join_sim.Run(reduction.r_stream(), reduction.s_stream(),
                     join_policy);
    EXPECT_EQ(cache_result.hits, join_result.total_results) << trial;
  }
}

}  // namespace
}  // namespace sjoin
