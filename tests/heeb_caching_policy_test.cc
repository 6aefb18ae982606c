#include "sjoin/core/heeb_caching_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/precompute.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/lfd_policy.h"
#include "sjoin/policies/lfu_policy.h"
#include "sjoin/stochastic/ar1_process.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/offline_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

TEST(HeebCachingPolicyTest, TimeIncrementalMatchesDirect) {
  StationaryProcess reference(
      DiscreteDistribution::FromMasses(0, {0.4, 0.3, 0.2, 0.05, 0.05}));
  Rng rng(31);
  auto refs = SampleRealization(reference, 400, rng);

  HeebCachingPolicy::Options options;
  options.alpha = 6.0;
  options.horizon = 250;

  options.mode = HeebCachingPolicy::Mode::kDirect;
  HeebCachingPolicy direct(&reference, options);
  options.mode = HeebCachingPolicy::Mode::kTimeIncremental;
  HeebCachingPolicy incremental(&reference, options);

  CacheSimulator sim({.capacity = 2, .warmup = 0});
  EXPECT_EQ(sim.Run(refs, direct).hits, sim.Run(refs, incremental).hits);
}

TEST(HeebCachingPolicyTest, StationaryRanksLikeA0) {
  // Section 5.2: optimal to discard the lowest reference probability.
  StationaryProcess reference(
      DiscreteDistribution::FromMasses(0, {0.5, 0.3, 0.2}));
  HeebCachingPolicy::Options options;
  options.alpha = 10.0;
  HeebCachingPolicy policy(&reference, options);

  StreamHistory history({0});
  std::vector<Value> cached = {1, 2};
  CachingContext ctx;
  ctx.now = 0;
  ctx.capacity = 2;
  ctx.cached = &cached;
  ctx.referenced = 0;
  ctx.hit = false;
  ctx.history = &history;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 2u);
  // Keep 0 (p=.5) and 1 (p=.3); discard 2 (p=.2).
  EXPECT_TRUE((retained[0] == 0 && retained[1] == 1) ||
              (retained[0] == 1 && retained[1] == 0));
}

TEST(HeebCachingPolicyTest, OfflineBehavesLikeLfd) {
  // Section 5.1: with deterministic futures HEEB reproduces LFD decisions,
  // hence the same hit count.
  OfflineProcess reference(
      {1, 2, 3, 1, 2, 1, 3, 2, 1, 3, 3, 2, 1, 2, 3, 1, 1, 2});
  const auto& seq = reference.sequence();

  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kDirect;
  options.alpha = 6.0;
  options.horizon = 30;
  HeebCachingPolicy heeb(&reference, options);
  LfdCachingPolicy lfd(seq);

  CacheSimulator sim({.capacity = 2, .warmup = 0});
  EXPECT_EQ(sim.Run(seq, heeb).hits, sim.Run(seq, lfd).hits);
}

TEST(HeebCachingPolicyTest, WalkTableAgreesWithEvaluatorFromDp) {
  RandomWalkProcess reference(
      DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  Rng rng(32);
  auto refs = SampleRealization(reference, 250, rng);

  HeebCachingPolicy::Options table_options;
  table_options.mode = HeebCachingPolicy::Mode::kWalkTable;
  table_options.alpha = 8.0;
  table_options.horizon = 40;
  table_options.walk_max_offset = 30;
  HeebCachingPolicy table_policy(&reference, table_options);

  // Equivalent evaluator built from the same DP table.
  ExpLifetime lifetime(8.0);
  OffsetTable dp = PrecomputeWalkCachingHeeb(reference, lifetime, 40, 30);
  HeebCachingPolicy::Options eval_options;
  eval_options.mode = HeebCachingPolicy::Mode::kEvaluator;
  eval_options.alpha = 8.0;
  eval_options.evaluator = [&dp](Value v, Value last) {
    return dp.At(v - last);
  };
  HeebCachingPolicy eval_policy(nullptr, eval_options);

  CacheSimulator sim({.capacity = 4, .warmup = 0});
  EXPECT_EQ(sim.Run(refs, table_policy).hits,
            sim.Run(refs, eval_policy).hits);
}

TEST(HeebCachingPolicyTest, ZeroDriftWalkRanksByDistance) {
  // Section 5.5: zero drift + symmetric unimodal steps => rank candidates
  // by |v - current|; HEEB must agree with this optimal rule.
  RandomWalkProcess reference(
      DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kWalkTable;
  options.alpha = 10.0;
  options.horizon = 60;
  options.walk_max_offset = 40;
  HeebCachingPolicy policy(&reference, options);

  StreamHistory history({0, 1, 0});
  std::vector<Value> cached = {2, -1, 5, -8};
  CachingContext ctx;
  ctx.now = 2;
  ctx.capacity = 3;
  ctx.cached = &cached;
  ctx.referenced = 0;
  ctx.hit = false;
  ctx.history = &history;  // Current position 0.
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 3u);
  // Keep the three closest to 0: {0, -1, 2}; discard 5 and -8.
  for (Value v : retained) {
    EXPECT_TRUE(v == 0 || v == -1 || v == 2) << v;
  }
}

TEST(HeebCachingPolicyTest, Ar1SurfacePolicyBeatsLfuOnWanderingStream) {
  // An AR(1) with slow mean reversion has locality that frequency-based
  // policies miss.
  Ar1Process reference(0.0, 0.95, 3.0, 0);
  Rng rng(33);
  auto refs = SampleRealization(reference, 1500, rng);

  ExpLifetime lifetime(20.0);
  HeebSurfaceTable surface = PrecomputeAr1CachingSurface(
      reference, lifetime, /*horizon=*/80, /*v_min=*/-80, /*v_max=*/80,
      /*x_min=*/-80, /*x_max=*/80, /*x_step=*/8, /*paths=*/300, /*seed=*/7);

  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kEvaluator;
  options.alpha = 20.0;
  options.evaluator = [&surface](Value v, Value last) {
    return surface.At(v, last);
  };
  HeebCachingPolicy heeb(nullptr, options);
  LfuCachingPolicy lfu;

  CacheSimulator sim({.capacity = 20, .warmup = 80});
  auto heeb_result = sim.Run(refs, heeb);
  auto lfu_result = sim.Run(refs, lfu);
  EXPECT_GT(heeb_result.counted_hits, lfu_result.counted_hits);
}

// --- kDirect batch kernel over the carried value order ------------------
//
// HeebCachingPolicy carries last step's returned list in value order and
// only verifies it (plus inserting the referenced value) when the next
// list is that list; any other list is sorted afresh. With a capacity
// above the candidate count, SelectRetained returns every candidate ranked
// by (score, is-referenced, value), so a kernel that read a lane under the
// wrong value would misrank it.

/// Every candidate ranked by the scalar CachingHeeb scores under the
/// selection order.
std::vector<Value> ScalarRanking(const StochasticProcess& reference,
                                 const StreamHistory& history, Time now,
                                 const std::vector<Value>& cached,
                                 Value referenced, bool hit, double alpha,
                                 Time horizon) {
  struct Ranked {
    double score;
    int referenced;
    Value value;
  };
  std::vector<Ranked> ranked;
  const ExpLifetime lifetime(alpha);
  for (Value v : cached) {
    ranked.push_back({CachingHeeb(reference, history, now, v, lifetime,
                                  horizon),
                      v == referenced ? 1 : 0, v});
  }
  if (!hit) {
    ranked.push_back({CachingHeeb(reference, history, now, referenced,
                                  lifetime, horizon),
                      1, referenced});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.referenced != b.referenced) {
                return a.referenced > b.referenced;
              }
              return a.value > b.value;
            });
  std::vector<Value> values;
  for (const Ranked& r : ranked) values.push_back(r.value);
  return values;
}

TEST(HeebCachingPolicyTest, CarriedValueOrderMatchesScalarRanking) {
  constexpr double kAlpha = 8.0;
  constexpr Time kHorizon = 60;
  // A drifting trend: the reference's support moves one value per step,
  // so the kernel's per-step run of lanes shifts with it.
  LinearTrendProcess reference(
      1.0, 0.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 3.0, -9, 9));
  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kDirect;
  options.alpha = kAlpha;
  options.horizon = kHorizon;
  HeebCachingPolicy policy(&reference, options);
  Rng rng(71);
  StreamHistory history;
  std::vector<Value> cached;
  int steps = 0;
  auto step = [&](Time now, Value referenced, bool hit) {
    CachingContext ctx;
    ctx.now = now;
    ctx.capacity = 1000;
    ctx.cached = &cached;
    ctx.referenced = referenced;
    ctx.hit = hit;
    ctx.history = &history;
    const std::vector<Value> want = ScalarRanking(
        reference, history, now, cached, referenced, hit, kAlpha, kHorizon);
    cached = policy.SelectRetained(ctx);
    ASSERT_EQ(cached, want) << "now " << now;
    ++steps;
  };
  // Referenced values are distinct from the cached ones (a miss) except
  // on the hit steps, which skip SelectRetained as the reduction does.
  Value next = -20;
  for (Time now = 0; now < 120; ++now) {
    history.Append(now);
    if (now % 9 == 4) continue;  // A hit: the list stays as it was.
    if (now % 13 == 6 && cached.size() > 3) {
      // The caller permutes the list: same values, other positions.
      std::rotate(cached.begin(), cached.begin() + 1, cached.end());
      std::swap(cached[0], cached[2]);
    }
    if (now % 17 == 8 && cached.size() > 3) {
      // The caller trims the list.
      cached.erase(cached.begin() + 2);
      cached.pop_back();
    }
    if (now == 70) {
      policy.Reset();
      cached.resize(5);
    }
    step(now, next, false);
    next += 1 + static_cast<Value>(rng.UniformInt(0, 2));
    // Now and then a hit-flagged call (the list is unchanged and no value
    // is demand-fetched).
    if (now % 10 == 7) step(now, cached.front(), true);
  }
  EXPECT_GT(steps, 100);
}

/// Hashes each step's retained ids (the reduction's supply tuples).
class RetainedHashObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    std::uint64_t h = 1469598103934665603ull;
    for (TupleId id : *step.retained) {
      h = (h ^ static_cast<std::uint64_t>(id)) * 1099511628211ull;
    }
    hashes_.push_back(h);
  }
  const std::vector<std::uint64_t>& hashes() const { return hashes_; }

 private:
  std::vector<std::uint64_t> hashes_;
};

/// Scores every value with core CachingHeeb, one value at a time: the
/// scalar oracle for HeebCachingPolicy kDirect's shared-pmf kernel.
class ScalarCachingHeeb final : public ScoredCachingPolicy {
 public:
  ScalarCachingHeeb(const StochasticProcess* reference, double alpha,
                    Time horizon)
      : reference_(reference), lifetime_(alpha), horizon_(horizon) {}

  const char* name() const override { return "HEEB-scalar"; }

 protected:
  double Score(Value v, const CachingContext& ctx) override {
    return CachingHeeb(*reference_, *ctx.history, ctx.now, v, lifetime_,
                       horizon_);
  }

 private:
  const StochasticProcess* reference_;
  ExpLifetime lifetime_;
  Time horizon_;
};

/// A reference stream that re-references recent values often, so the
/// reduction sees hits and windowed misses.
std::vector<Value> RecentReferences(const StochasticProcess& reference) {
  Rng rng(83);
  std::vector<Value> refs = SampleRealization(reference, 600, rng);
  for (std::size_t t = 5; t < refs.size(); t += 3) refs[t] = refs[t - 4];
  return refs;
}

/// Retained supply-tuple hashes of `policy` run through the Theorem 1
/// reduction of `reduction` at capacity 24.
std::vector<std::uint64_t> ReductionTrace(const CachingReduction& reduction,
                                          CachingPolicy* policy,
                                          std::optional<Time> window) {
  ReductionJoinPolicy join(&reduction, policy);
  BinaryPolicyAdapter adapter(&join);
  StreamEngine engine(StreamTopology::Binary(),
                      {.capacity = 24, .warmup = 0, .window = window});
  RetainedHashObserver trace;
  engine.Run({&reduction.r_stream(), &reduction.s_stream()}, adapter,
             {&trace});
  return trace.hashes();
}

constexpr double kEcbAlpha = 10.0;
constexpr Time kEcbHorizon = 80;

HeebCachingPolicy::Options EcbDirectOptions() {
  HeebCachingPolicy::Options options;
  options.mode = HeebCachingPolicy::Mode::kDirect;
  options.alpha = kEcbAlpha;
  options.horizon = kEcbHorizon;
  return options;
}

TEST(HeebCachingPolicyTest, KernelMatchesScalarOracleThroughReduction) {
  // The Theorem 1 reduction feeds the caching policy the engine's cache:
  // the returned list on a plain miss, the same list on a hit, and the
  // list with the expired referenced value dropped on a windowed miss.
  // The kDirect kernel (carried order) and the per-value CachingHeeb
  // oracle must retain the same supply tuples at every step.
  LinearTrendProcess reference(
      1.0, 0.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.5, -6, 6));
  const CachingReduction reduction(RecentReferences(reference));
  for (std::optional<Time> window :
       {std::optional<Time>{}, std::optional<Time>{6}}) {
    HeebCachingPolicy kernel(&reference, EcbDirectOptions());
    ScalarCachingHeeb oracle(&reference, kEcbAlpha, kEcbHorizon);
    EXPECT_EQ(ReductionTrace(reduction, &kernel, window),
              ReductionTrace(reduction, &oracle, window))
        << window.has_value();
  }
}

/// The caching candidates the reduction hands its policy at each miss
/// step, rebuilt from the engine's view: the previous step's cached supply
/// tuples (decoded, in cache order) minus an expired copy of the
/// referenced value, then the referenced value.
class CachingCandidateObserver final : public StepObserver {
 public:
  struct Miss {
    Time now = 0;
    std::vector<Value> values;
  };

  CachingCandidateObserver(const CachingReduction* reduction,
                           std::optional<Time> window)
      : reduction_(reduction), window_(window) {}

  void OnStep(const EngineStepView& step) override {
    Value referenced = 0;
    for (const StreamTuple& tuple : *step.arrivals) {
      if (tuple.stream == 0) referenced = reduction_->Decode(tuple.value).first;
    }
    Miss miss{step.now, {}};
    bool hit = false;
    for (const StreamTuple& tuple : previous_) {
      const Value v = reduction_->Decode(tuple.value).first;
      if (v != referenced) {
        miss.values.push_back(v);
      } else if (!window_.has_value() ||
                 step.now - tuple.arrival <= *window_) {
        hit = true;
      }
    }
    if (!hit) {
      miss.values.push_back(referenced);
      misses_.push_back(std::move(miss));
    }
    previous_ = *step.cache;
  }

  const std::vector<Miss>& misses() const { return misses_; }

 private:
  const CachingReduction* reduction_;
  std::optional<Time> window_;
  std::vector<StreamTuple> previous_;
  std::vector<Miss> misses_;
};

TEST(HeebCachingPolicyTest, ScoreObserverSeesTheKernelScores) {
  // An observer on kDirect receives the scores the kernel computed for the
  // selection: exactly cached.size() + 1 per miss step (the reduction
  // calls the policy on misses only), in lane order, each equal to the
  // per-value CachingHeeb oracle's; and observing changes no decision.
  LinearTrendProcess reference(
      1.0, 0.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.5, -6, 6));
  const std::vector<Value> refs = RecentReferences(reference);
  const CachingReduction reduction(refs);
  for (std::optional<Time> window :
       {std::optional<Time>{}, std::optional<Time>{6}}) {
    SCOPED_TRACE(window.has_value() ? "windowed" : "regular");
    HeebCachingPolicy observed(&reference, EcbDirectOptions());
    std::vector<Value> values;
    std::vector<double> scores;
    observed.set_score_observer([&](Value v, double score) {
      values.push_back(v);
      scores.push_back(score);
    });
    ReductionJoinPolicy join(&reduction, &observed);
    BinaryPolicyAdapter adapter(&join);
    StreamEngine engine(StreamTopology::Binary(),
                        {.capacity = 24, .warmup = 0, .window = window});
    RetainedHashObserver trace;
    CachingCandidateObserver candidates(&reduction, window);
    engine.Run({&reduction.r_stream(), &reduction.s_stream()}, adapter,
               {&trace, &candidates});

    HeebCachingPolicy plain(&reference, EcbDirectOptions());
    EXPECT_EQ(trace.hashes(), ReductionTrace(reduction, &plain, window));

    // The candidate lists in step order, scored by the oracle on the
    // reference prefix each miss step saw.
    ASSERT_GT(candidates.misses().size(), 100u);
    ASSERT_LT(candidates.misses().size(), refs.size());
    std::vector<Value> want_values;
    std::vector<double> want_scores;
    const ExpLifetime lifetime(kEcbAlpha);
    StreamHistory history;
    for (const CachingCandidateObserver::Miss& miss : candidates.misses()) {
      while (history.size() <= miss.now) {
        history.Append(refs[static_cast<std::size_t>(history.size())]);
      }
      for (Value v : miss.values) {
        want_values.push_back(v);
        want_scores.push_back(CachingHeeb(reference, history, miss.now, v,
                                          lifetime, kEcbHorizon));
      }
    }
    EXPECT_EQ(values, want_values);
    EXPECT_EQ(scores, want_scores);
  }
}

}  // namespace
}  // namespace sjoin
