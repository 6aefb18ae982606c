#include "sjoin/core/heeb_join_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/heeb.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

// Shared fixture: a TOWER-like trend configuration.
struct TrendConfig {
  TrendConfig()
      : r(1.0, -1.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 2.0, -10, 10)),
        s(1.0, 0.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 3.0, -15,
                                                           15)) {}
  LinearTrendProcess r;
  LinearTrendProcess s;
};

std::int64_t RunHeeb(const TrendConfig& config, HeebJoinPolicy::Mode mode,
                     const std::vector<Value>& rv,
                     const std::vector<Value>& sv, std::size_t capacity) {
  HeebJoinPolicy::Options options;
  options.mode = mode;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = 200;  // Generous so incremental drift is negligible.
  HeebJoinPolicy policy(&config.r, &config.s, options);
  JoinSimulator sim({.capacity = capacity, .warmup = 0});
  return sim.Run(rv, sv, policy).total_results;
}

// Property sweep: every efficient mode agrees with the direct definition,
// across seeds and cache sizes.
struct ModeSweepCase {
  HeebJoinPolicy::Mode mode;
  int seed;
  std::size_t cache;
};

class HeebModeEquivalenceTest
    : public ::testing::TestWithParam<ModeSweepCase> {};

TEST_P(HeebModeEquivalenceTest, MatchesDirect) {
  const ModeSweepCase& param = GetParam();
  TrendConfig config;
  Rng rng(static_cast<std::uint64_t>(param.seed));
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  auto direct = RunHeeb(config, HeebJoinPolicy::Mode::kDirect, pair.r,
                        pair.s, param.cache);
  auto mode_result =
      RunHeeb(config, param.mode, pair.r, pair.s, param.cache);
  EXPECT_EQ(direct, mode_result);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeebModeEquivalenceTest,
    ::testing::Values(
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 11, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 12, 3},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 13, 15},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 14, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 11, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 12, 3},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 13, 15},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 14, 8}));

TEST(HeebJoinPolicyTest, WindowedTimeIncrementalMatchesWindowedDirect) {
  // Section 7: the Corollary 3 recurrence carries over to sliding windows
  // unchanged (the window cap is a fixed absolute time); only the
  // arrival-time sum is truncated.
  TrendConfig config;
  Rng rng(15);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  HeebJoinPolicy::Options options;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = 200;
  JoinSimulator sim({.capacity = 8, .warmup = 0, .window = Time{15}});

  options.mode = HeebJoinPolicy::Mode::kDirect;
  HeebJoinPolicy direct(&config.r, &config.s, options);
  options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
  HeebJoinPolicy incremental(&config.r, &config.s, options);
  EXPECT_EQ(sim.Run(pair.r, pair.s, direct).total_results,
            sim.Run(pair.r, pair.s, incremental).total_results);
}

TEST(HeebJoinPolicyTest, IncrementalAdvanceDeterministicAcrossReruns) {
  // The Corollary 3 sweep iterates the flat slot array and periodically
  // re-anchors through the refresh interval; rerunning the same inputs
  // must reproduce the exact same per-tuple scores — slot storage order
  // is an implementation detail that may not leak into results.
  TrendConfig config;
  Rng rng(31);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  auto run_once = [&](std::vector<std::pair<TupleId, double>>* trace) {
    HeebJoinPolicy::Options options;
    options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
    options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
    options.horizon = 200;
    options.refresh_interval = 4;  // Exercise the re-anchor path often.
    HeebJoinPolicy policy(&config.r, &config.s, options);
    policy.set_score_observer([trace](const Tuple& tuple, double score) {
      trace->emplace_back(tuple.id, score);
    });
    JoinSimulator sim({.capacity = 8, .warmup = 0});
    return sim.Run(pair.r, pair.s, policy).total_results;
  };
  std::vector<std::pair<TupleId, double>> first;
  std::vector<std::pair<TupleId, double>> second;
  auto first_total = run_once(&first);
  auto second_total = run_once(&second);
  EXPECT_EQ(first_total, second_total);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << "score " << i;
    EXPECT_EQ(first[i].second, second[i].second) << "score " << i;
  }
}

TEST(HeebJoinPolicyTest, ValueIncrementalTransferMatchesCorollary5) {
  // Every arrival with a same-side cached donor scores by the Corollary 5
  // transfer: walk the donor's H from now to t' = now + (v' - v)/a with
  // per-step partner probabilities. Recompute that walk here from the
  // observed donor scores and freshly allocated Predict() pmfs; the
  // policy's scratch-pmf path must give the same doubles.
  TrendConfig config;
  Rng rng(41);
  auto pair = SampleStreamPair(config.r, config.s, 240, rng);
  HeebJoinPolicy::Options options;
  options.mode = HeebJoinPolicy::Mode::kValueIncremental;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = 200;
  HeebJoinPolicy policy(&config.r, &config.s, options);

  // Scores of the current step, delivered before its OnStep.
  std::vector<std::pair<Tuple, double>> step_scores;
  policy.set_score_observer([&step_scores](const Tuple& tuple, double score) {
    step_scores.emplace_back(tuple, score);
  });
  const double e = std::exp(1.0 / options.alpha);
  const StreamHistory no_history;  // Trend processes ignore the history.
  int transfers = 0;
  struct TransferCheck final : public StepObserver {
    std::function<void(Time)> on_step;
    void OnStep(const EngineStepView& step) override { on_step(step.now); }
  } check;
  check.on_step = [&](Time now) {
    for (const auto& [arrival, score] : step_scores) {
      if (arrival.arrival != now) continue;
      // The donor: the nearest-valued cached tuple of the same side,
      // ties broken by (value, id).
      const std::pair<Tuple, double>* donor = nullptr;
      for (const auto& entry : step_scores) {
        const Tuple& cached = entry.first;
        if (cached.arrival == now || cached.side != arrival.side) continue;
        if (donor == nullptr) {
          donor = &entry;
          continue;
        }
        const Value d = std::llabs(cached.value - arrival.value);
        const Value best = std::llabs(donor->first.value - arrival.value);
        if (d < best ||
            (d == best && (cached.value < donor->first.value ||
                           (cached.value == donor->first.value &&
                            cached.id < donor->first.id)))) {
          donor = &entry;
        }
      }
      if (donor == nullptr) continue;  // Scored directly.
      const LinearTrendProcess& partner =
          arrival.side == StreamSide::kR ? config.s : config.r;
      const Value diff = donor->first.value - arrival.value;
      const Time t_prime =
          now + diff / static_cast<Value>(partner.slope());
      double h = donor->second;
      if (t_prime > now) {
        for (Time t = now + 1; t <= t_prime; ++t) {
          h = e * h - partner.Predict(no_history, t).Prob(donor->first.value);
          if (h < 0.0) h = 0.0;
        }
      } else {
        for (Time t = now; t > t_prime; --t) {
          h = (h + partner.Predict(no_history, t).Prob(donor->first.value)) /
              e;
        }
      }
      EXPECT_EQ(score, h) << "arrival " << arrival.id << " at " << now;
      ++transfers;
    }
    step_scores.clear();
  };

  BinaryPolicyAdapter adapter(&policy);
  StreamEngine engine(StreamTopology::Binary(), {.capacity = 8});
  engine.Run({&pair.r, &pair.s}, adapter, {&check});
  EXPECT_GT(transfers, 200);
}

TEST(HeebJoinPolicyTest, WalkTableMatchesDirect) {
  RandomWalkProcess r(DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  RandomWalkProcess s(DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  Rng rng(13);
  auto pair = SampleStreamPair(r, s, 200, rng);

  HeebJoinPolicy::Options options;
  options.alpha = 10.0;
  options.horizon = 60;

  options.mode = HeebJoinPolicy::Mode::kDirect;
  HeebJoinPolicy direct(&r, &s, options);
  options.mode = HeebJoinPolicy::Mode::kWalkTable;
  HeebJoinPolicy table(&r, &s, options);

  JoinSimulator sim({.capacity = 6, .warmup = 0});
  EXPECT_EQ(sim.Run(pair.r, pair.s, direct).total_results,
            sim.Run(pair.r, pair.s, table).total_results);
}

TEST(HeebJoinPolicyTest, StationaryHeebBehavesLikeProb) {
  // Section 5.2: stationary streams; HEEB must keep the tuples whose
  // values are most probable in the partner stream.
  auto dist = DiscreteDistribution::FromMasses(0, {0.6, 0.3, 0.1});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 8.0;
  HeebJoinPolicy policy(&r, &s, options);

  StreamHistory history_r({0, 2});
  StreamHistory history_s({1, 2});
  std::vector<Tuple> cached = {{0, StreamSide::kR, 0, 0},
                               {1, StreamSide::kS, 1, 0}};
  std::vector<Tuple> arrivals = {{2, StreamSide::kR, 2, 1},
                                 {3, StreamSide::kS, 2, 1}};
  PolicyContext ctx;
  ctx.now = 1;
  ctx.capacity = 2;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 2u);
  // Values 0 (p=0.6) and 1 (p=0.3) beat the two value-2 tuples (p=0.1).
  EXPECT_TRUE((retained[0] == 0 && retained[1] == 1) ||
              (retained[0] == 1 && retained[1] == 0));
}

TEST(HeebJoinPolicyTest, SlidingWindowSection7Example) {
  // Section 7: stationary streams; three candidates
  //   x1: p = 0.50, remaining life 1
  //   x2: p = 0.49, remaining life 50
  //   x3: p = 0.01, remaining life 51
  // PROB prefers x1 > x2; LIFE prefers x3 > x1; windowed HEEB should rank
  // x2 > x1 > x3.
  std::vector<double> masses(100, 0.0);
  masses[1] = 0.50;
  masses[2] = 0.49;
  masses[3] = 0.01;
  auto dist = DiscreteDistribution::FromMasses(0, masses);
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 10.0;
  options.horizon = 200;
  HeebJoinPolicy policy(&r, &s, options);

  constexpr Time kWindow = 51;
  constexpr Time kNow = 50;
  StreamHistory history_r(std::vector<Value>(kNow + 1, 99));
  StreamHistory history_s(std::vector<Value>(kNow + 1, 99));
  // Remaining life = arrival + window - now.
  std::vector<Tuple> cached = {{0, StreamSide::kR, 1, 0},    // x1: life 1.
                               {1, StreamSide::kR, 2, 49}};  // x2: life 50.
  std::vector<Tuple> arrivals = {{2, StreamSide::kR, 3, 50},  // x3: life 51.
                                 {3, StreamSide::kS, 99, 50}};
  PolicyContext ctx;
  ctx.now = kNow;
  ctx.capacity = 1;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  ctx.window = kWindow;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0], 1u);  // x2 wins.

  // Widen the capacity to observe the full ranking.
  ctx.capacity = 2;
  retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0], 1u);  // x2 first.
  EXPECT_EQ(retained[1], 0u);  // then x1; x3 loses.
}

TEST(HeebJoinPolicyTest, ExpiredTuplesScoreZero) {
  auto dist = DiscreteDistribution::FromMasses(0, {0.5, 0.5});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 5.0;
  HeebJoinPolicy policy(&r, &s, options);

  StreamHistory history_r({0, 0, 0});
  StreamHistory history_s({0, 0, 0});
  std::vector<Tuple> cached = {{0, StreamSide::kR, 0, 0}};  // Expired.
  std::vector<Tuple> arrivals = {{4, StreamSide::kR, 0, 2},
                                 {5, StreamSide::kS, 7, 2}};  // 7: p = 0.
  PolicyContext ctx;
  ctx.now = 2;
  ctx.capacity = 1;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  ctx.window = 1;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0], 4u);  // Fresh value-0 tuple beats the expired one.
}

TEST(HeebJoinPolicyTest, BeatsProbOnTrendingStreams) {
  // The paper's headline: with a trend, HEEB over statistically-informed
  // predictions outperforms history-frequency heuristics.
  TrendConfig config;
  Rng rng(21);
  std::int64_t heeb_total = 0;
  std::int64_t prob_total = 0;
  for (int run = 0; run < 3; ++run) {
    auto pair = SampleStreamPair(config.r, config.s, 400, rng);
    heeb_total +=
        RunHeeb(config, HeebJoinPolicy::Mode::kDirect, pair.r, pair.s, 10);
    ProbPolicy prob;
    JoinSimulator sim({.capacity = 10, .warmup = 0});
    prob_total += sim.Run(pair.r, pair.s, prob).total_results;
  }
  EXPECT_GT(heeb_total, prob_total);
}

// --- Ring-fed predictions and the carried incremental state -------------
//
// HeebJoinPolicy reads partner pmfs from a PredictionRing: an independent
// stream predicts one new time per step, while a dependent stream, Reset,
// and a `now` that jumps a whole horizon or goes back rebuild the ring.

/// Forwards to another process and counts the predictions asked of it.
class CountingProcess final : public StochasticProcess {
 public:
  explicit CountingProcess(const StochasticProcess* inner) : inner_(inner) {}

  DiscreteDistribution Predict(const StreamHistory& history,
                               Time t) const override {
    ++predictions_;
    return inner_->Predict(history, t);
  }
  void PredictInto(const StreamHistory& history, Time t,
                   DiscreteDistribution* out) const override {
    ++predictions_;
    inner_->PredictInto(history, t, out);
  }
  bool IsIndependent() const override { return inner_->IsIndependent(); }
  std::unique_ptr<StochasticProcess> Clone() const override {
    return std::make_unique<CountingProcess>(inner_);
  }

  std::int64_t predictions() const { return predictions_; }

 private:
  const StochasticProcess* inner_;
  mutable std::int64_t predictions_ = 0;
};

/// Drives a policy one step at a time the way the engines do: step t's
/// arrivals are R tuple 2t and S tuple 2t+1 (arrival t), appended to the
/// histories before the policy runs, and the cache is last step's returned
/// list. `now` may jump or go back.
class StepDriver {
 public:
  StepDriver(std::vector<Value> r, std::vector<Value> s)
      : r_(std::move(r)), s_(std::move(s)) {}

  void Step(HeebJoinPolicy& policy, Time now, std::size_t capacity,
            std::optional<Time> window = std::nullopt) {
    const auto i = static_cast<std::size_t>(now);
    history_r_.Append(r_[i]);
    history_s_.Append(s_[i]);
    const auto id = static_cast<TupleId>(2 * now);
    std::vector<Tuple> arrivals = {{id, StreamSide::kR, r_[i], now},
                                   {id + 1, StreamSide::kS, s_[i], now}};
    PolicyContext ctx;
    ctx.now = now;
    ctx.capacity = capacity;
    ctx.cached = &cached_;
    ctx.arrivals = &arrivals;
    ctx.history_r = &history_r_;
    ctx.history_s = &history_s_;
    ctx.window = window;
    std::vector<Tuple> next;
    for (TupleId id : policy.SelectRetained(ctx)) {
      for (const std::vector<Tuple>* from : {&cached_, &arrivals}) {
        for (const Tuple& t : *from) {
          if (t.id == id) next.push_back(t);
        }
      }
    }
    cached_ = std::move(next);
  }

  const StreamHistory& history(StreamSide side) const {
    return side == StreamSide::kR ? history_r_ : history_s_;
  }
  std::vector<Tuple>& cached() { return cached_; }

 private:
  std::vector<Value> r_;
  std::vector<Value> s_;
  StreamHistory history_r_;
  StreamHistory history_s_;
  std::vector<Tuple> cached_;
};

// SJOIN_VALIDATE builds re-predict one ring slot per Advance as a check.
constexpr std::int64_t kCheck = kValidationEnabled ? 1 : 0;

HeebJoinPolicy::Options RingOptions(HeebJoinPolicy::Mode mode, Time horizon) {
  HeebJoinPolicy::Options options;
  options.mode = mode;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = horizon;
  return options;
}

// Predictions per step, for `steps` engine-style steps at now = 0, 1, ...
std::vector<std::int64_t> PredictionsPerStep(HeebJoinPolicy::Mode mode,
                                             Time horizon, Time steps) {
  TrendConfig config;
  CountingProcess r(&config.r);
  CountingProcess s(&config.s);
  HeebJoinPolicy policy(&r, &s, RingOptions(mode, horizon));
  Rng rng(5);
  auto pair = SampleStreamPair(config.r, config.s, steps, rng);
  StepDriver driver(pair.r, pair.s);
  std::vector<std::int64_t> per_step;
  std::int64_t before = 0;
  for (Time t = 0; t < steps; ++t) {
    driver.Step(policy, t, 20);
    const std::int64_t total = r.predictions() + s.predictions();
    per_step.push_back(total - before);
    before = total;
  }
  return per_step;
}

TEST(HeebJoinPolicyRingTest, IndependentStreamsPredictOneTimePerStep) {
  // After the first step builds the ring (horizon predictions per
  // stream), a step predicts the one new time per stream; the
  // time-incremental mode adds one Corollary 3 advance pmf per side.
  // Neither count grows with the horizon.
  for (auto [mode, per_step] :
       {std::pair{HeebJoinPolicy::Mode::kDirect, 2},
        std::pair{HeebJoinPolicy::Mode::kTimeIncremental, 4}}) {
    for (Time horizon : {40, 150}) {
      const auto counts = PredictionsPerStep(mode, horizon, 60);
      EXPECT_EQ(counts[0], 2 * horizon + kCheck) << horizon;
      for (std::size_t t = 1; t < counts.size(); ++t) {
        EXPECT_EQ(counts[t], per_step + kCheck)
            << "horizon " << horizon << " t " << t;
      }
    }
  }
}

TEST(HeebJoinPolicyRingTest, DependentStreamsResetAndJumpsRebuild) {
  constexpr Time kHorizon = 30;
  Rng rng(8);
  // Random walks depend on the history: every step re-predicts the whole
  // ring for both streams.
  {
    RandomWalkProcess walk(DiscreteDistribution::DiscretizedNormal(0.0, 1.0),
                           0);
    CountingProcess r(&walk);
    CountingProcess s(&walk);
    HeebJoinPolicy policy(
        &r, &s, RingOptions(HeebJoinPolicy::Mode::kDirect, kHorizon));
    auto pair = SampleStreamPair(walk, walk, 20, rng);
    StepDriver driver(pair.r, pair.s);
    for (Time t = 0; t < 20; ++t) {
      const std::int64_t before = r.predictions() + s.predictions();
      driver.Step(policy, t, 6);
      EXPECT_EQ(r.predictions() + s.predictions() - before,
                2 * kHorizon + kCheck)
          << t;
    }
  }
  // Independent streams: Reset, a jump of a whole horizon and a step back
  // rebuild; a shorter jump predicts only the times it uncovers.
  TrendConfig config;
  CountingProcess r(&config.r);
  CountingProcess s(&config.s);
  HeebJoinPolicy policy(
      &r, &s, RingOptions(HeebJoinPolicy::Mode::kTimeIncremental, kHorizon));
  auto pair = SampleStreamPair(config.r, config.s, 200, rng);
  auto ring_predictions = [&](StepDriver& driver, Time now) {
    const std::int64_t before = r.predictions() + s.predictions();
    driver.Step(policy, now, 6);
    return r.predictions() + s.predictions() - before;
  };
  StepDriver driver(pair.r, pair.s);
  EXPECT_EQ(ring_predictions(driver, 0), 2 * kHorizon + kCheck);
  EXPECT_EQ(ring_predictions(driver, 1), 2 + 2 + kCheck);
  // A jump of kHorizon - 1 keeps one slot; the advance predicts one pmf
  // per side and elapsed step.
  EXPECT_EQ(ring_predictions(driver, kHorizon),
            2 * (kHorizon - 1) + 2 * (kHorizon - 1) + kCheck);
  EXPECT_EQ(ring_predictions(driver, 2 * kHorizon),
            2 * kHorizon + 2 * kHorizon + kCheck);
  policy.Reset();
  StepDriver fresh(pair.r, pair.s);
  EXPECT_EQ(ring_predictions(fresh, 3), 2 * kHorizon + kCheck);
  EXPECT_EQ(ring_predictions(fresh, 4), 2 + 2 + kCheck);
  // Back in time.
  EXPECT_EQ(ring_predictions(fresh, 2), 2 * kHorizon + kCheck);
}

TEST(HeebJoinPolicyRingTest, ScoresMatchJoiningHeebBitForBit) {
  // Every kDirect score (and every arrival's time-incremental score, which
  // is the direct sum) equals JoiningHeeb over the partner's predictions,
  // truncated at the window when it cuts the horizon. Independent and
  // history-dependent partners, with and without a window.
  constexpr Time kHorizon = 150;
  TrendConfig trend;
  RandomWalkProcess walk(DiscreteDistribution::DiscretizedNormal(0.0, 2.0),
                         0);
  const StochasticProcess* trend_pair[2] = {&trend.r, &trend.s};
  const StochasticProcess* walk_pair[2] = {&walk, &walk};
  for (const auto& processes : {trend_pair, walk_pair}) {
    for (std::optional<Time> window :
         {std::optional<Time>{}, std::optional<Time>{12}}) {
      for (auto mode : {HeebJoinPolicy::Mode::kDirect,
                        HeebJoinPolicy::Mode::kTimeIncremental}) {
        if (mode == HeebJoinPolicy::Mode::kTimeIncremental &&
            !processes[0]->IsIndependent()) {
          continue;
        }
        const auto options = RingOptions(mode, kHorizon);
        HeebJoinPolicy policy(processes[0], processes[1], options);
        Rng rng(17);
        auto pair =
            SampleStreamPair(*processes[0], *processes[1], 80, rng);
        StepDriver driver(pair.r, pair.s);
        std::vector<std::pair<Tuple, double>> scores;
        policy.set_score_observer([&](const Tuple& tuple, double score) {
          scores.emplace_back(tuple, score);
        });
        const ExpLifetime lifetime(options.alpha);
        std::int64_t checked = 0;
        for (Time now = 0; now < 80; ++now) {
          scores.clear();
          driver.Step(policy, now, 15, window);
          for (const auto& [tuple, score] : scores) {
            if (mode == HeebJoinPolicy::Mode::kTimeIncremental &&
                tuple.arrival != now) {
              continue;  // Carried by the Corollary 3 recurrence.
            }
            Time max_dt = kHorizon;
            if (window.has_value()) {
              max_dt = std::min(max_dt, tuple.arrival + *window - now);
            }
            const StreamSide partner = Partner(tuple.side);
            const double want =
                max_dt < 1 ? 0.0
                           : JoiningHeeb(*processes[SideIndex(partner)],
                                         driver.history(partner), now,
                                         tuple.value, lifetime, max_dt);
            ASSERT_EQ(score, want) << "now " << now << " id " << tuple.id;
            ++checked;
          }
        }
        EXPECT_GT(checked, 80);
      }
    }
  }
}

TEST(HeebJoinPolicyRingTest, CallerEditedCacheKeepsEachTuplesState) {
  // The incremental state follows the returned list; a cache the caller
  // reverses or trims is mapped afresh. A time-incremental H depends only
  // on the tuple itself (its direct sum at arrival, then Corollary 3 and
  // re-anchors on its own schedule), so every tuple the edited run scores
  // must score exactly as in an unedited run that keeps every tuple.
  TrendConfig config;
  Rng rng(23);
  auto pair = SampleStreamPair(config.r, config.s, 60, rng);
  auto options = RingOptions(HeebJoinPolicy::Mode::kTimeIncremental, 120);
  options.refresh_interval = 8;
  HeebJoinPolicy edited(&config.r, &config.s, options);
  HeebJoinPolicy keep_all(&config.r, &config.s, options);
  std::vector<std::pair<TupleId, double>> edited_scores;
  std::vector<std::unordered_map<TupleId, double>> keep_all_scores(60);
  Time now = 0;
  edited.set_score_observer([&](const Tuple& tuple, double score) {
    edited_scores.emplace_back(tuple.id, score);
  });
  keep_all.set_score_observer([&](const Tuple& tuple, double score) {
    keep_all_scores[static_cast<std::size_t>(now)][tuple.id] = score;
  });
  StepDriver edited_driver(pair.r, pair.s);
  StepDriver keep_all_driver(pair.r, pair.s);
  std::int64_t checked = 0;
  for (now = 0; now < 60; ++now) {
    std::vector<Tuple>& cache = edited_driver.cached();
    if (now % 7 == 3) std::reverse(cache.begin(), cache.end());
    if (now % 11 == 5 && cache.size() > 2) {
      cache.erase(cache.begin() + 1);
      cache.pop_back();
    }
    edited_scores.clear();
    edited_driver.Step(edited, now, 12);
    keep_all_driver.Step(keep_all, now, 1000);
    for (const auto& [id, score] : edited_scores) {
      const auto& want = keep_all_scores[static_cast<std::size_t>(now)];
      ASSERT_EQ(want.count(id), 1u) << "now " << now << " id " << id;
      EXPECT_EQ(score, want.at(id)) << "now " << now << " id " << id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

}  // namespace
}  // namespace sjoin
