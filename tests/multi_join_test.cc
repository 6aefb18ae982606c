#include "sjoin/multi/multi_join_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "sjoin/common/rng.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/multi/multi_baseline_policies.h"
#include "sjoin/multi/multi_heeb_policy.h"
#include "sjoin/multi/multi_opt_offline_policy.h"
#include "sjoin/policies/edge_budget_policy.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stream_sampler.h"
#include "sjoin/testing/naive_multi_heeb.h"

namespace sjoin {
namespace {

// A multi-policy that keeps the newest tuples.
class MultiKeepNewest final : public MultiReplacementPolicy {
 public:
  const char* name() const override { return "KEEP-NEWEST"; }
  std::vector<TupleId> SelectRetained(const MultiPolicyContext& ctx) override {
    std::vector<MultiTuple> all = *ctx.cached;
    all.insert(all.end(), ctx.arrivals->begin(), ctx.arrivals->end());
    std::sort(all.begin(), all.end(),
              [](const MultiTuple& a, const MultiTuple& b) {
                if (a.arrival != b.arrival) return a.arrival > b.arrival;
                return a.id > b.id;
              });
    std::vector<TupleId> retained;
    for (std::size_t i = 0; i < std::min(ctx.capacity, all.size()); ++i) {
      retained.push_back(all[i].id);
    }
    return retained;
  }
};

TEST(MultiJoinSimulatorTest, TwoStreamsReduceToBinarySimulator) {
  std::vector<Value> r = {1, 2, 3, 1, 2, 9, 1};
  std::vector<Value> s = {9, 1, 1, 2, 1, 1, 3};

  MultiJoinSimulator multi(2, {{0, 1}}, {.capacity = 3, .warmup = 2});
  MultiKeepNewest multi_policy;
  auto multi_result = multi.Run({r, s}, multi_policy);

  // Binary equivalent with the keep-newest policy.
  class KeepNewest final : public ScoredPolicy {
   public:
    const char* name() const override { return "KEEP-NEWEST"; }

   protected:
    double Score(const Tuple& tuple, std::uint32_t /*lane*/,
                 const PolicyContext& ctx) override {
      (void)ctx;
      return static_cast<double>(tuple.arrival);
    }
  };
  JoinSimulator binary({.capacity = 3, .warmup = 2});
  KeepNewest binary_policy;
  auto binary_result = binary.Run(r, s, binary_policy);

  EXPECT_EQ(multi_result.total_results, binary_result.total_results);
  EXPECT_EQ(multi_result.counted_results, binary_result.counted_results);
}

TEST(MultiJoinSimulatorTest, ChainJoinCountsBothEdges) {
  // Streams 0-1-2 in a chain; stream 1's tuples join both neighbors.
  //   t0: all distinct. t1: stream 0 and 2 both emit the value stream 1
  //   emitted at t0 -> 2 results if it was cached.
  std::vector<Value> s0 = {10, 5, 11};
  std::vector<Value> s1 = {5, 20, 21};
  std::vector<Value> s2 = {30, 5, 31};
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}}, {.capacity = 9, .warmup = 0});
  MultiKeepNewest policy;
  auto result = sim.Run({s0, s1, s2}, policy);
  // At t=1: cached s1(5) joins arrivals 0(5) and 2(5): +2. Also cached
  // s0(10)/s2(30) join nothing. At t=2: nothing matches.
  EXPECT_EQ(result.total_results, 2);
}

TEST(MultiJoinSimulatorTest, NonAdjacentStreamsDoNotJoin) {
  // Chain 0-1-2: streams 0 and 2 never join each other.
  std::vector<Value> s0 = {7, 7, 7};
  std::vector<Value> s1 = {1, 2, 3};
  std::vector<Value> s2 = {7, 7, 7};
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}}, {.capacity = 9, .warmup = 0});
  MultiKeepNewest policy;
  auto result = sim.Run({s0, s1, s2}, policy);
  EXPECT_EQ(result.total_results, 0);
}

TEST(MultiJoinSimulatorTest, WindowRestrictsJoins) {
  std::vector<Value> s0 = {5, 0, 0, 0};
  std::vector<Value> s1 = {9, 9, 9, 5};
  MultiJoinSimulator no_window(2, {{0, 1}}, {.capacity = 8, .warmup = 0});
  MultiJoinSimulator window(2, {{0, 1}},
                            {.capacity = 8, .warmup = 0, .window = Time{2}});
  MultiKeepNewest policy;
  EXPECT_EQ(no_window.Run({s0, s1}, policy).total_results, 1);
  EXPECT_EQ(window.Run({s0, s1}, policy).total_results, 0);
}

TEST(MultiHeebPolicyTest, MatchesBinaryHeebOnTwoStreams) {
  LinearTrendProcess r(1.0, -1.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                      0.0, 1.5, -10, 10));
  LinearTrendProcess s(1.0, 0.0, DiscreteDistribution::TruncatedDiscretizedNormal(
                                     0.0, 2.5, -15, 15));
  Rng rng(91);
  auto pair = SampleStreamPair(r, s, 300, rng);

  MultiJoinSimulator multi(2, {{0, 1}}, {.capacity = 6, .warmup = 20});
  MultiHeebPolicy multi_heeb({&r, &s}, &multi,
                             {.alpha = 10.0, .horizon = 100});
  auto multi_result = multi.Run({pair.r, pair.s}, multi_heeb);

  JoinSimulator binary({.capacity = 6, .warmup = 20});
  HeebJoinPolicy::Options options;
  options.mode = HeebJoinPolicy::Mode::kDirect;
  options.alpha = 10.0;
  options.horizon = 100;
  HeebJoinPolicy binary_heeb(&r, &s, options);
  auto binary_result = binary.Run(pair.r, pair.s, binary_heeb);

  EXPECT_EQ(multi_result.counted_results, binary_result.counted_results);
}

TEST(MultiHeebPolicyTest, BeatsRandomOnThreeTrendingStreams) {
  auto noise = [] {
    return DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -10,
                                                            10);
  };
  LinearTrendProcess p0(1.0, 0.0, noise());
  LinearTrendProcess p1(1.0, -1.0, noise());
  LinearTrendProcess p2(1.0, -2.0, noise());
  Rng rng(92);
  std::vector<std::vector<Value>> streams = {
      SampleRealization(p0, 400, rng), SampleRealization(p1, 400, rng),
      SampleRealization(p2, 400, rng)};

  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}, {0, 2}},
                         {.capacity = 9, .warmup = 40});
  MultiHeebPolicy heeb({&p0, &p1, &p2}, &sim, {.alpha = 10.0,
                                               .horizon = 100});
  MultiRandomPolicy random_policy(5);
  EXPECT_GT(sim.Run(streams, heeb).counted_results,
            sim.Run(streams, random_policy).counted_results);
}

TEST(MultiOptOfflineTest, TwoStreamsMatchBinaryOptOffline) {
  Rng rng(93);
  for (int trial = 0; trial < 8; ++trial) {
    Time len = 40;
    std::vector<Value> r, s;
    for (Time t = 0; t < len; ++t) {
      r.push_back(rng.UniformInt(0, 6));
      s.push_back(rng.UniformInt(0, 6));
    }
    MultiJoinSimulator multi(2, {{0, 1}}, {.capacity = 3, .warmup = 0});
    MultiOptOfflinePolicy multi_opt(&multi, {r, s}, 3);
    auto multi_result = multi.Run({r, s}, multi_opt);

    OptOfflinePolicy binary_opt(r, s, 3);
    JoinSimulator binary({.capacity = 3, .warmup = 0});
    auto binary_result = binary.Run(r, s, binary_opt);
    EXPECT_EQ(multi_result.total_results, binary_result.total_results)
        << trial;
    EXPECT_EQ(multi_opt.optimal_benefit(), binary_opt.optimal_benefit());
  }
}

TEST(MultiOptOfflineTest, SimulatorCountMatchesFlowCost) {
  Rng rng(94);
  std::vector<std::vector<Value>> streams(3);
  for (auto& stream : streams) {
    for (Time t = 0; t < 60; ++t) stream.push_back(rng.UniformInt(0, 5));
  }
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}, {0, 2}},
                         {.capacity = 4, .warmup = 0});
  MultiOptOfflinePolicy opt(&sim, streams, 4);
  auto result = sim.Run(streams, opt);
  EXPECT_EQ(result.total_results, opt.optimal_benefit());
}

TEST(MultiOptOfflineTest, UpperBoundsMultiHeebAndRandom) {
  auto noise = [] {
    return DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -8,
                                                            8);
  };
  LinearTrendProcess p0(1.0, 0.0, noise());
  LinearTrendProcess p1(1.0, -1.0, noise());
  LinearTrendProcess p2(1.0, -2.0, noise());
  Rng rng(95);
  std::vector<std::vector<Value>> streams = {
      SampleRealization(p0, 250, rng), SampleRealization(p1, 250, rng),
      SampleRealization(p2, 250, rng)};
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}}, {.capacity = 6, .warmup = 0});
  MultiOptOfflinePolicy opt(&sim, streams, 6);
  MultiHeebPolicy heeb({&p0, &p1, &p2}, &sim, {.alpha = 10.0,
                                               .horizon = 80});
  MultiRandomPolicy rand(4);
  auto opt_result = sim.Run(streams, opt);
  EXPECT_GE(opt_result.total_results,
            sim.Run(streams, heeb).total_results);
  EXPECT_GE(opt_result.total_results,
            sim.Run(streams, rand).total_results);
  EXPECT_EQ(opt_result.total_results, opt.optimal_benefit());
}

// --- Join-edge validation (constructor CHECKs) ---------------------------

TEST(MultiJoinDeathTest, RejectsOutOfRangeStream) {
  EXPECT_DEATH(MultiJoinSimulator(3, {{0, 3}}, {.capacity = 2}), "");
}

TEST(MultiJoinDeathTest, RejectsNegativeStream) {
  EXPECT_DEATH(MultiJoinSimulator(3, {{-1, 1}}, {.capacity = 2}), "");
}

TEST(MultiJoinDeathTest, RejectsSelfJoinEdge) {
  EXPECT_DEATH(MultiJoinSimulator(3, {{1, 1}}, {.capacity = 2}), "");
}

TEST(MultiJoinDeathTest, RejectsDuplicateEdge) {
  EXPECT_DEATH(MultiJoinSimulator(3, {{0, 1}, {0, 1}}, {.capacity = 2}),
               "duplicate or mirrored join edge");
}

TEST(MultiJoinDeathTest, RejectsMirroredEdge) {
  EXPECT_DEATH(MultiJoinSimulator(3, {{0, 1}, {1, 0}}, {.capacity = 2}),
               "duplicate or mirrored join edge");
}

// --- Runtime probe planner (DESIGN.md §2f) -------------------------------

// A 5-way star: stream 0 is the hub.
std::vector<std::pair<int, int>> StarEdges() {
  return {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
}

std::vector<std::vector<Value>> TrendingStreams(
    std::vector<std::unique_ptr<LinearTrendProcess>>* processes, int n,
    Time len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> streams;
  for (int s = 0; s < n; ++s) {
    processes->push_back(std::make_unique<LinearTrendProcess>(
        1.0, -0.5 * s,
        DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -8, 8)));
    streams.push_back(SampleRealization(*processes->back(), len, rng));
  }
  return streams;
}

TEST(ProbePlannerIntegrationTest, PlannerIsBitIdenticalToNaiveOrder) {
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 5, 300, 211);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator naive(5, StarEdges(), {.capacity = 10, .warmup = 20});
  MultiJoinSimulator planned(5, StarEdges(),
                             {.capacity = 10,
                              .warmup = 20,
                              .planner = true,
                              .replan_interval = 16});
  MultiHeebPolicy heeb(processes, &naive, {.alpha = 10.0, .horizon = 60});
  auto naive_result = naive.Run(streams, heeb);
  auto planned_result = planned.Run(streams, heeb);

  EXPECT_EQ(naive_result.counted_results, planned_result.counted_results);
  EXPECT_EQ(naive_result.total_results, planned_result.total_results);
  // The planner actually ran: probes were considered and checkpoints hit.
  EXPECT_GT(planned_result.telemetry.probes, 0);
  EXPECT_GT(planned_result.telemetry.plan_replans, 0);
  EXPECT_EQ(naive_result.telemetry.probes, 0);  // Naive path reports none.
}

TEST(ProbePlannerIntegrationTest, WindowedPlannerStaysBitIdentical) {
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 3, 200, 212);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator::Options base = {
      .capacity = 6, .warmup = 10, .window = 25};
  MultiJoinSimulator naive(3, {{0, 1}, {1, 2}}, base);
  base.planner = true;
  base.replan_interval = 8;
  MultiJoinSimulator planned(3, {{0, 1}, {1, 2}}, base);
  MultiHeebPolicy heeb(processes, &naive, {.alpha = 8.0, .horizon = 40});
  EXPECT_EQ(naive.Run(streams, heeb).counted_results,
            planned.Run(streams, heeb).counted_results);
}

TEST(MultiHeebPolicyTest, ScoresMatchFromScratchSumBeforeAndAfterReset) {
  // The policy reads L(dt) from a table built on first use; every score
  // must equal the Appendix C sum computed from scratch through
  // Predict() and ExpLifetime::At, bit for bit, on the first step after
  // construction and again after Reset().
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 3, 40, 215);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}}, {.capacity = 4, .warmup = 0});
  constexpr double kAlpha = 7.0;
  constexpr Time kHorizon = 50;
  constexpr Time kNow = 20;
  MultiHeebPolicy heeb(processes, &sim,
                       {.alpha = kAlpha, .horizon = kHorizon});

  std::vector<StreamHistory> histories;
  for (const auto& stream : streams) {
    histories.emplace_back(std::vector<Value>(stream.begin(),
                                              stream.begin() + kNow + 1));
  }
  std::vector<MultiTuple> cached;
  std::vector<MultiTuple> arrivals;
  for (int s = 0; s < 3; ++s) {
    for (Time t : {kNow - 9, kNow - 3}) {
      cached.push_back({MultiTupleIdAt(3, s, t), s,
                        streams[static_cast<std::size_t>(s)]
                               [static_cast<std::size_t>(t)],
                        t});
    }
    arrivals.push_back({MultiTupleIdAt(3, s, kNow), s,
                        streams[static_cast<std::size_t>(s)]
                               [static_cast<std::size_t>(kNow)],
                        kNow});
  }
  auto from_scratch = [&](const MultiTuple& tuple, std::optional<Time> window) {
    const ExpLifetime lifetime(kAlpha);
    Time max_dt = kHorizon;
    if (window.has_value()) {
      max_dt = std::min(max_dt, tuple.arrival + *window - kNow);
    }
    double h = 0.0;
    for (int partner : sim.PartnersOf(tuple.stream)) {
      double subtotal = 0.0;
      for (Time dt = 1; dt <= max_dt; ++dt) {
        subtotal += processes[static_cast<std::size_t>(partner)]
                        ->Predict(histories[static_cast<std::size_t>(partner)],
                                  kNow + dt)
                        .Prob(tuple.value) *
                    lifetime.At(dt);
      }
      h += subtotal;
    }
    return h;
  };

  for (std::optional<Time> window : {std::optional<Time>{},
                                     std::optional<Time>{15}}) {
    MultiPolicyContext ctx;
    ctx.now = kNow;
    ctx.capacity = 4;
    ctx.cached = &cached;
    ctx.arrivals = &arrivals;
    ctx.histories = &histories;
    ctx.window = window;
    for (bool reset : {false, true}) {
      if (reset) heeb.Reset();
      std::vector<std::pair<TupleId, double>> seen;
      heeb.set_score_observer([&](const MultiTuple& tuple, double score) {
        seen.emplace_back(tuple.id, score);
      });
      heeb.SelectRetained(ctx);
      ASSERT_EQ(seen.size(), cached.size() + arrivals.size());
      std::size_t i = 0;
      for (const auto* run : {&cached, &arrivals}) {
        for (const MultiTuple& tuple : *run) {
          EXPECT_EQ(seen[i].first, tuple.id);
          EXPECT_EQ(seen[i].second, from_scratch(tuple, window))
              << "tuple " << tuple.id << " reset " << reset;
          ++i;
        }
      }
    }
  }
}

TEST(MultiHeebPolicyTest, CarriedKeyOrderIsCheckedAgainstTheCachedList) {
  // SelectRetained starts its key ranking from last step's key order only
  // when ctx.cached is exactly last step's returned list. Feed it caches
  // that are not: permuted, one tuple dropped, a foreign tuple added or
  // swapped in, the first step after Reset, and windowed steps where max
  // Δt shifts and expired tuples leave. Every score and the retained list
  // must match the definitional oracle bit for bit.
  constexpr int kStreams = 5;
  constexpr std::size_t kCapacity = 20;
  constexpr double kAlpha = 6.0;
  constexpr Time kHorizon = 6;
  constexpr Time kWindow = 8;
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  const auto streams = TrendingStreams(&owned, kStreams, 90, 217);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());
  MultiJoinSimulator sim(kStreams, StarEdges(), {.capacity = kCapacity});
  MultiHeebPolicy heeb(processes, &sim,
                       {.alpha = kAlpha, .horizon = kHorizon,
                        .use_score_cache = true});
  testing::NaiveMultiHeebPolicy naive(processes, &sim.topology(), kAlpha,
                                      kHorizon);

  auto tuple_at = [&](int s, Time t) {
    return MultiTuple{MultiTupleIdAt(kStreams, s, t), s,
                      streams[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(t)],
                      t};
  };
  // One step at `now` over `cached`; returns the retained tuples in
  // returned order, which is the cache the engine would keep.
  auto step = [&](Time now, const std::vector<MultiTuple>& cached,
                  std::optional<Time> window, const char* label) {
    std::vector<StreamHistory> histories;
    std::vector<MultiTuple> arrivals;
    for (int s = 0; s < kStreams; ++s) {
      const auto& stream = streams[static_cast<std::size_t>(s)];
      histories.emplace_back(
          std::vector<Value>(stream.begin(), stream.begin() + now + 1));
      arrivals.push_back(tuple_at(s, now));
    }
    MultiPolicyContext ctx;
    ctx.now = now;
    ctx.capacity = kCapacity;
    ctx.cached = &cached;
    ctx.arrivals = &arrivals;
    ctx.histories = &histories;
    ctx.window = window;
    std::vector<std::pair<TupleId, double>> got;
    std::vector<std::pair<TupleId, double>> want;
    heeb.set_score_observer([&](const MultiTuple& tuple, double score) {
      got.emplace_back(tuple.id, score);
    });
    naive.set_score_observer([&](const MultiTuple& tuple, double score) {
      want.emplace_back(tuple.id, score);
    });
    const std::vector<TupleId> retained = heeb.SelectRetained(ctx);
    EXPECT_EQ(retained, naive.SelectRetained(ctx)) << label << " @" << now;
    EXPECT_EQ(got, want) << label << " @" << now;
    std::vector<MultiTuple> candidates = cached;
    candidates.insert(candidates.end(), arrivals.begin(), arrivals.end());
    std::vector<MultiTuple> next;
    for (TupleId id : retained) {
      for (const MultiTuple& tuple : candidates) {
        if (tuple.id == id) next.push_back(tuple);
      }
    }
    return next;
  };

  std::vector<MultiTuple> cache;
  Time now = 30;
  // Fill the cache, then keep it as returned: the carried order applies.
  for (; now < 37; ++now) cache = step(now, cache, std::nullopt, "as returned");
  ASSERT_EQ(cache.size(), kCapacity);

  std::reverse(cache.begin(), cache.end());
  cache = step(now++, cache, std::nullopt, "permuted");
  cache.erase(cache.begin() + static_cast<std::ptrdiff_t>(cache.size() / 2));
  cache = step(now++, cache, std::nullopt, "one dropped");
  // Tuples from before any step ran, so no step has seen their ids.
  cache.push_back(tuple_at(2, 1));
  cache = step(now++, cache, std::nullopt, "foreign added");
  cache[3] = tuple_at(4, 3);
  cache = step(now++, cache, std::nullopt, "foreign swapped in");
  cache = step(now++, cache, std::nullopt, "as returned");

  heeb.Reset();
  cache = step(now++, cache, std::nullopt, "after Reset");
  cache = step(now++, cache, std::nullopt, "as returned");

  // Windowed: a tuple's max Δt is min(horizon, arrival + window − now), so
  // the young tuples tie at the horizon, the old ones shift each step and
  // the expired ones (max Δt ≤ 0) score 0. The engine keeps the cache as
  // returned; every third step a caller trims the expired tuples instead.
  std::size_t trimmed = 0;
  for (int i = 0; i < 12; ++i, ++now) {
    if (i % 3 == 2) {
      trimmed += std::erase_if(cache, [&](const MultiTuple& tuple) {
        return tuple.arrival + kWindow - now < 1;
      });
    }
    cache = step(now, cache, kWindow, i % 3 == 2 ? "trimmed" : "windowed");
  }
  EXPECT_GT(trimmed, 0u);
}

// --- Policy score caches (bit-identical memoization) ---------------------

TEST(ScoreCacheTest, MultiHeebCacheOnMatchesCacheOff) {
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 5, 250, 213);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator sim(5, StarEdges(), {.capacity = 10, .warmup = 20});
  MultiHeebPolicy plain(processes, &sim, {.alpha = 10.0, .horizon = 60});
  MultiHeebPolicy cached(processes, &sim,
                         {.alpha = 10.0, .horizon = 60,
                          .use_score_cache = true});
  EXPECT_EQ(sim.Run(streams, plain).counted_results,
            sim.Run(streams, cached).counted_results);
  EXPECT_GT(cached.score_cache_stats().hits, 0);
}

TEST(ScoreCacheTest, MultiProbAndLifeCacheOnMatchesCacheOff) {
  Rng rng(214);
  std::vector<std::vector<Value>> streams(3);
  for (auto& stream : streams) {
    for (Time t = 0; t < 300; ++t) stream.push_back(rng.UniformInt(0, 12));
  }
  MultiJoinSimulator sim(3, {{0, 1}, {1, 2}, {0, 2}},
                         {.capacity = 8, .warmup = 10});

  MultiProbPolicy prob_plain(&sim, {.assumed_lifetime = 50});
  MultiProbPolicy prob_cached(
      &sim, {.assumed_lifetime = 50, .use_score_cache = true});
  EXPECT_EQ(sim.Run(streams, prob_plain).counted_results,
            sim.Run(streams, prob_cached).counted_results);
  EXPECT_GT(prob_cached.score_cache_stats().hits, 0);

  MultiLifePolicy life_plain(&sim, {.lifetime = 60});
  MultiLifePolicy life_cached(&sim,
                              {.lifetime = 60, .use_score_cache = true});
  EXPECT_EQ(sim.Run(streams, life_plain).counted_results,
            sim.Run(streams, life_cached).counted_results);
  EXPECT_GT(life_cached.score_cache_stats().hits, 0);
}

// --- Per-edge cache budgeting --------------------------------------------

TEST(EdgeBudgetPolicyTest, BudgetsPartitionCapacityAndRunIsDeterministic) {
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 5, 300, 215);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator sim(5, StarEdges(), {.capacity = 9, .warmup = 20});
  EdgeBudgetPolicy policy(processes, &sim.topology(),
                          {.alpha = 10.0,
                           .horizon = 60,
                           .realloc_interval = 32,
                           .use_score_cache = true});
  auto first = sim.Run(streams, policy);

  // Budgets partition the shared capacity across the four star edges.
  std::size_t total = 0;
  for (std::size_t b : policy.budgets()) total += b;
  EXPECT_EQ(policy.budgets().size(), 4u);
  EXPECT_EQ(total, 9u);
  EXPECT_GT(policy.realloc_checkpoints(), 0);
  EXPECT_GT(policy.score_cache_stats().hits, 0);

  // Reallocation is a pure function of the run prefix: rerun replays.
  auto second = sim.Run(streams, policy);
  EXPECT_EQ(first.counted_results, second.counted_results);
  EXPECT_EQ(first.total_results, second.total_results);
}

TEST(EdgeBudgetPolicyTest, PlannerDoesNotChangeEdgeBudgetResults) {
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 5, 250, 216);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator naive(5, StarEdges(), {.capacity = 8, .warmup = 15});
  MultiJoinSimulator planned(5, StarEdges(),
                             {.capacity = 8,
                              .warmup = 15,
                              .planner = true,
                              .replan_interval = 16});
  EdgeBudgetPolicy policy(processes, &naive.topology(),
                          {.alpha = 10.0, .horizon = 50});
  EXPECT_EQ(naive.Run(streams, policy).counted_results,
            planned.Run(streams, policy).counted_results);
}

TEST(EdgeBudgetPolicyTest, SubtotalsMatchTheDefinitionalSum) {
  // Every per-edge subtotal must equal Σ_Δt Pr{X^p_{now+Δt} = v} L(Δt)
  // from a fresh Predict() and L per term, bit for bit: trend partners
  // reuse ring slots across steps, walk partners re-predict every step,
  // and the window cuts max Δt below the horizon (to 0 near expiry).
  Rng rng(218);
  const auto noise = DiscreteDistribution::TruncatedDiscretizedNormal(
      0.0, 2.0, -8, 8);
  LinearTrendProcess center(1.0, 0.0, noise);
  LinearTrendProcess trend(1.0, -1.0, noise);
  RandomWalkProcess walk_a(DiscreteDistribution::BoundedUniform(-2, 2), 0);
  RandomWalkProcess walk_b(DiscreteDistribution::BoundedUniform(-1, 1), 5);
  LinearTrendProcess steep(3.0, 0.0, noise);
  const std::vector<const StochasticProcess*> processes = {
      &center, &trend, &walk_a, &walk_b, &steep};
  std::vector<std::vector<Value>> streams;
  for (const StochasticProcess* process : processes) {
    streams.push_back(SampleRealization(*process, 160, rng));
  }
  constexpr double kAlpha = 6.0;
  constexpr Time kHorizon = 25;
  const ExpLifetime lifetime(kAlpha);
  for (bool memoized : {false, true}) {
    for (std::optional<Time> window : {std::optional<Time>(),
                                       std::optional<Time>(12)}) {
      MultiJoinSimulator sim(
          5, StarEdges(), {.capacity = 7, .warmup = 10, .window = window});
      EdgeBudgetPolicy policy(processes, &sim.topology(),
                              {.alpha = kAlpha,
                               .horizon = kHorizon,
                               .realloc_interval = 16,
                               .use_score_cache = memoized});
      std::int64_t checked = 0;
      policy.set_score_observer([&](const EngineContext& ctx,
                                    const StreamTuple& tuple, int partner,
                                    double subtotal) {
        Time max_dt = kHorizon;
        if (ctx.window.has_value()) {
          max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
        }
        const auto p = static_cast<std::size_t>(partner);
        double expected = 0.0;
        for (Time dt = 1; dt <= max_dt; ++dt) {
          expected += processes[p]
                          ->Predict((*ctx.histories)[p], ctx.now + dt)
                          .Prob(tuple.value) *
                      lifetime.At(dt);
        }
        EXPECT_EQ(subtotal, expected)
            << "memo " << memoized << " now " << ctx.now << " stream "
            << tuple.stream << " partner " << partner;
        ++checked;
      });
      sim.Run(streams, policy);
      EXPECT_GT(checked, 0);
    }
  }
}

TEST(EdgeBudgetPolicyTest, RetainsCompetitiveResultsOnSkewedStar) {
  // Edge (0, 1) carries nearly all the matches; the budgeter should not
  // do worse than random despite splitting capacity across edges.
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  auto streams = TrendingStreams(&owned, 5, 300, 217);
  std::vector<const StochasticProcess*> processes;
  for (const auto& p : owned) processes.push_back(p.get());

  MultiJoinSimulator sim(5, StarEdges(), {.capacity = 10, .warmup = 20});
  EdgeBudgetPolicy budget(processes, &sim.topology(),
                          {.alpha = 10.0, .horizon = 60});
  MultiRandomPolicy random_policy(7);
  EXPECT_GT(sim.Run(streams, budget).counted_results,
            sim.Run(streams, random_policy).counted_results);
}

}  // namespace
}  // namespace sjoin
