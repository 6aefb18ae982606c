#include "sjoin/core/adaptive_heeb_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

struct TrendPair {
  TrendPair()
      : r(1.0, -1.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 2.0, -10, 10)),
        s(1.0, 0.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 3.0, -15,
                                                           15)) {}
  LinearTrendProcess r;
  LinearTrendProcess s;
};

TEST(AdaptiveHeebTest, AlphaConvergesTowardObservedLifetime) {
  TrendPair config;
  AdaptiveHeebJoinPolicy::Options options;
  options.initial_lifetime = 60.0;  // Deliberately far too long.
  AdaptiveHeebJoinPolicy policy(&config.r, &config.s, options);

  Rng rng(71);
  auto pair = SampleStreamPair(config.r, config.s, 800, rng);
  JoinSimulator sim({.capacity = 8, .warmup = 0});
  sim.Run(pair.r, pair.s, policy);

  // Tuples in these trend configurations live tens of steps at most; the
  // estimate must have dropped far below the bad initial guess.
  EXPECT_LT(policy.lifetime_estimate(), 35.0);
  EXPECT_GT(policy.lifetime_estimate(), 1.5);
}

TEST(AdaptiveHeebTest, ResetRestoresInitialState) {
  TrendPair config;
  AdaptiveHeebJoinPolicy::Options options;
  options.initial_lifetime = 40.0;
  AdaptiveHeebJoinPolicy policy(&config.r, &config.s, options);
  Rng rng(72);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  JoinSimulator sim({.capacity = 6, .warmup = 0});
  auto first = sim.Run(pair.r, pair.s, policy);
  auto second = sim.Run(pair.r, pair.s, policy);  // Run() resets.
  EXPECT_EQ(first.total_results, second.total_results);
}

TEST(AdaptiveHeebTest, CompetitiveWithWellTunedFixedAlpha) {
  TrendPair config;
  Rng rng(73);
  std::int64_t adaptive_total = 0;
  std::int64_t tuned_total = 0;
  std::int64_t mistuned_total = 0;
  JoinSimulator sim({.capacity = 10, .warmup = 40});
  for (int run = 0; run < 3; ++run) {
    auto pair = SampleStreamPair(config.r, config.s, 700, rng);

    AdaptiveHeebJoinPolicy::Options adaptive_options;
    adaptive_options.initial_lifetime = 100.0;  // Bad starting guess.
    AdaptiveHeebJoinPolicy adaptive(&config.r, &config.s, adaptive_options);
    adaptive_total += sim.Run(pair.r, pair.s, adaptive).counted_results;

    HeebJoinPolicy::Options tuned_options;
    tuned_options.alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
    tuned_options.horizon = 150;
    HeebJoinPolicy tuned(&config.r, &config.s, tuned_options);
    tuned_total += sim.Run(pair.r, pair.s, tuned).counted_results;

    HeebJoinPolicy::Options mistuned_options;
    mistuned_options.alpha = ExpLifetime::AlphaForAverageLifetime(500.0);
    mistuned_options.horizon = 150;
    HeebJoinPolicy mistuned(&config.r, &config.s, mistuned_options);
    mistuned_total += sim.Run(pair.r, pair.s, mistuned).counted_results;
  }
  // Adaptive must recover most of the well-tuned performance despite the
  // bad initial guess (within 10%), and beat random.
  EXPECT_GT(adaptive_total, tuned_total * 9 / 10);
  RandomPolicy rand(3, Time{25});
  Rng rng2(73);
  std::int64_t rand_total = 0;
  for (int run = 0; run < 3; ++run) {
    auto pair = SampleStreamPair(config.r, config.s, 700, rng2);
    rand_total += sim.Run(pair.r, pair.s, rand).counted_results;
  }
  EXPECT_GT(adaptive_total, rand_total);
}

// Forwards to a policy and counts the arrivals whose stamp is not the
// step they arrive in.
class ArrivalStampProbe final : public ReplacementPolicy {
 public:
  explicit ArrivalStampProbe(ReplacementPolicy* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    for (const Tuple& tuple : *ctx.arrivals) {
      ++arrivals_;
      if (tuple.arrival != ctx.now) ++misstamped_;
    }
    return inner_->SelectRetained(ctx);
  }
  const char* name() const override { return inner_->name(); }

  std::int64_t arrivals() const { return arrivals_; }
  std::int64_t misstamped() const { return misstamped_; }

 private:
  ReplacementPolicy* inner_;
  std::int64_t arrivals_ = 0;
  std::int64_t misstamped_ = 0;
};

TEST(AdaptiveHeebTest, AdmittedArrivalsCarryTheCurrentStep) {
  // The policy reads a tuple's admission time from its arrival stamp, so
  // every arrival must reach it stamped with the step it arrives in, with
  // or without a window.
  TrendPair config;
  Rng rng(74);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  for (std::optional<Time> window : {std::optional<Time>{},
                                     std::optional<Time>{12}}) {
    AdaptiveHeebJoinPolicy::Options options;
    options.initial_lifetime = 40.0;
    AdaptiveHeebJoinPolicy policy(&config.r, &config.s, options);
    ArrivalStampProbe probe(&policy);
    JoinSimulator sim({.capacity = 6, .warmup = 0, .window = window});
    sim.Run(pair.r, pair.s, probe);
    EXPECT_EQ(probe.arrivals(), 2 * 300);
    EXPECT_EQ(probe.misstamped(), 0);
    EXPECT_LT(policy.lifetime_estimate(), 40.0);
  }
}

}  // namespace
}  // namespace sjoin
