#include "sjoin/core/heeb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/dominance.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/stochastic/offline_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stationary_process.h"

namespace sjoin {
namespace {

TEST(LifetimeFnTest, FixedLifetime) {
  FixedLifetime l(3);
  EXPECT_DOUBLE_EQ(l.At(1), 1.0);
  EXPECT_DOUBLE_EQ(l.At(3), 1.0);
  EXPECT_DOUBLE_EQ(l.At(4), 0.0);
}

TEST(LifetimeFnTest, ExpLifetimeDecaysAndIsBounded) {
  ExpLifetime l(5.0);
  EXPECT_NEAR(l.At(1), std::exp(-0.2), 1e-12);
  for (Time dt = 1; dt < 50; ++dt) {
    EXPECT_GT(l.At(dt), l.At(dt + 1));
    EXPECT_GE(l.At(dt), 0.0);
    EXPECT_LE(l.At(dt), 1.0);
  }
}

TEST(LifetimeFnTest, AlphaForAverageLifetimeRoundTrips) {
  double alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
  // Average lifetime predicted by L_exp: 1 / (1 - e^{-1/alpha}).
  EXPECT_NEAR(1.0 / (1.0 - std::exp(-1.0 / alpha)), 12.5, 1e-9);
}

TEST(LifetimeFnTest, WindowedLifetimeZeroesBeyondWindow) {
  ExpLifetime base(5.0);
  WindowedLifetime l(&base, 3);
  EXPECT_DOUBLE_EQ(l.At(3), base.At(3));
  EXPECT_DOUBLE_EQ(l.At(4), 0.0);
}

TEST(LifetimeFnTest, InverseLifetime) {
  InverseLifetime l;
  EXPECT_DOUBLE_EQ(l.At(1), 1.0);
  EXPECT_DOUBLE_EQ(l.At(4), 0.25);
}

TEST(HeebTest, DefinitionFromEcbMatchesJoiningForm) {
  // With B from Lemma 1, the telescoped definition equals the direct sum.
  StationaryProcess partner(DiscreteDistribution::BoundedUniform(0, 9));
  StreamHistory history({1});
  ExpLifetime lifetime(4.0);
  constexpr Time kHorizon = 60;
  auto ecb = MakeJoiningEcb(partner, history, 0, 3, kHorizon);
  double via_def = HeebFromEcb(ecb, lifetime, kHorizon);
  double via_sum = JoiningHeeb(partner, history, 0, 3, lifetime, kHorizon);
  EXPECT_NEAR(via_def, via_sum, 1e-10);
}

TEST(HeebTest, DefinitionFromEcbMatchesCachingForm) {
  StationaryProcess reference(DiscreteDistribution::BoundedUniform(0, 9));
  StreamHistory history({1});
  ExpLifetime lifetime(4.0);
  constexpr Time kHorizon = 60;
  auto ecb = MakeCachingEcb(reference, history, 0, 3, kHorizon);
  double via_def = HeebFromEcb(ecb, lifetime, kHorizon);
  double via_sum = CachingHeeb(reference, history, 0, 3, lifetime, kHorizon);
  EXPECT_NEAR(via_def, via_sum, 1e-10);
}

TEST(HeebTest, ExpHorizonBoundsTail) {
  double alpha = 7.0;
  Time horizon = ExpHorizon(alpha, 1e-9);
  // Tail sum of L_exp beyond the horizon is below ~epsilon * alpha-ish.
  double tail = std::exp(-static_cast<double>(horizon) / alpha) /
                (1.0 - std::exp(-1.0 / alpha));
  EXPECT_LT(tail, 1e-8 * alpha);
}

// Theorem 4: with admissible L, B_x dominates B_y implies H_x >= H_y
// (strict under strong dominance). Checked with randomized dominated pairs
// for every lifetime choice.
class Theorem4Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Test, DominanceImpliesHeebOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  constexpr Time kHorizon = 30;
  for (int trial = 0; trial < 50; ++trial) {
    // Build y's per-step benefits, then x's >= y's.
    std::vector<double> bx, by;
    double cx = 0.0, cy = 0.0;
    for (Time dt = 0; dt < kHorizon; ++dt) {
      double py = rng.UniformReal() * 0.4;
      double extra = rng.UniformReal() * 0.3;
      cy += py;
      cx += py + extra;
      by.push_back(cy);
      bx.push_back(cx);
    }
    TabulatedEcb ecb_x(bx);
    TabulatedEcb ecb_y(by);
    ASSERT_TRUE(MeansDominates(CompareEcb(ecb_x, ecb_y, kHorizon)));

    FixedLifetime fixed(10);
    InfiniteLifetime inf;
    InverseLifetime inv;
    ExpLifetime exp_l(6.0);
    for (const LifetimeFn* l :
         std::initializer_list<const LifetimeFn*>{&fixed, &inf, &inv,
                                                  &exp_l}) {
      double hx = HeebFromEcb(ecb_x, *l, kHorizon);
      double hy = HeebFromEcb(ecb_y, *l, kHorizon);
      EXPECT_GE(hx, hy - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem4Test, ::testing::Values(1, 2, 3, 4));

TEST(HeebTest, StrongDominanceGivesStrictOrder) {
  TabulatedEcb x({0.2, 0.5, 0.9});
  TabulatedEcb y({0.1, 0.3, 0.6});
  ASSERT_EQ(CompareEcb(x, y, 3), Dominance::kStrictlyDominates);
  ExpLifetime l(5.0);
  EXPECT_GT(HeebFromEcb(x, l, 3), HeebFromEcb(y, l, 3));
}

TEST(HeebTest, StationaryHeebRanksLikeProb) {
  // Section 5.2: with stationary streams, H orders tuples by p(v), the
  // PROB criterion, for any admissible L.
  StationaryProcess partner(
      DiscreteDistribution::FromMasses(0, {0.5, 0.3, 0.2}));
  StreamHistory history({0});
  ExpLifetime l(5.0);
  double h0 = JoiningHeeb(partner, history, 0, 0, l, 100);
  double h1 = JoiningHeeb(partner, history, 0, 1, l, 100);
  double h2 = JoiningHeeb(partner, history, 0, 2, l, 100);
  EXPECT_GT(h0, h1);
  EXPECT_GT(h1, h2);
}

TEST(HeebTest, OfflineCachingHeebRanksLikeLfd) {
  // Section 5.1: with a known future, H orders database tuples by next
  // reference time — Belady's LFD.
  OfflineProcess reference({9, 1, 2, 3, 1, 2});
  StreamHistory history({9});  // t0 = 0.
  ExpLifetime l(5.0);
  double h1 = CachingHeeb(reference, history, 0, 1, l, 6);  // Next at t=1.
  double h2 = CachingHeeb(reference, history, 0, 2, l, 6);  // Next at t=2.
  double h3 = CachingHeeb(reference, history, 0, 3, l, 6);  // Next at t=3.
  double h4 = CachingHeeb(reference, history, 0, 4, l, 6);  // Never.
  EXPECT_GT(h1, h2);
  EXPECT_GT(h2, h3);
  EXPECT_GT(h3, h4);
  EXPECT_DOUBLE_EQ(h4, 0.0);
}

TEST(HeebTest, FixedLifetimeEqualsEcbAtCutoff) {
  // H with L_fixed(ΔT) is exactly B(ΔT) (the table in Section 4.3).
  StationaryProcess partner(DiscreteDistribution::BoundedUniform(0, 3));
  StreamHistory history({0});
  auto ecb = MakeJoiningEcb(partner, history, 0, 1, 20);
  FixedLifetime l(7);
  EXPECT_NEAR(HeebFromEcb(ecb, l, 20), ecb.At(7), 1e-12);
}

TEST(HeebTest, InfiniteLifetimeEqualsEcbLimitForCaching) {
  // H with L_inf is lim B(Δt): the probability of ever being referenced.
  StationaryProcess reference(DiscreteDistribution::BoundedUniform(0, 1));
  StreamHistory history({0});
  InfiniteLifetime l;
  double h = CachingHeeb(reference, history, 0, 1, l, 200);
  EXPECT_NEAR(h, 1.0, 1e-12);  // p = 0.5, referenced eventually a.s.
}

// --- CachingHeebBatch: support-bounded kernel vs the scalar sum ----------
//
// The batch kernel visits only the lanes inside each step's pmf support.
// These cases pin that the skipped lanes change nothing: every lane must
// equal the per-lane CachingHeeb bit for bit (EXPECT_EQ on doubles).

std::vector<double> BatchScores(const StochasticProcess& reference,
                                const StreamHistory& history, Time t0,
                                const std::vector<Value>& values,
                                const LifetimeFn& lifetime, Time horizon) {
  std::vector<double> out(values.size(), -1.0);
  CachingHeebBatch(reference, history, t0, values.data(), values.size(),
                   LifetimeTable(lifetime, horizon), out.data());
  return out;
}

void ExpectBatchMatchesScalar(const StochasticProcess& reference,
                              const StreamHistory& history, Time t0,
                              const std::vector<Value>& values,
                              const LifetimeFn& lifetime, Time horizon) {
  const std::vector<double> batch =
      BatchScores(reference, history, t0, values, lifetime, horizon);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(batch[i], CachingHeeb(reference, history, t0, values[i],
                                    lifetime, horizon))
        << "lane " << i << " value " << values[i];
  }
}

TEST(CachingHeebBatchTest, LanesOutsideEverySupportScoreExactlyZero) {
  StationaryProcess reference(DiscreteDistribution::BoundedUniform(0, 9));
  StreamHistory history({4});
  const std::vector<Value> values = {-100, 42, -1, 10, 3, 1000, 0, 9};
  ExpLifetime lifetime(6.0);
  ExpectBatchMatchesScalar(reference, history, 0, values, lifetime, 80);
  const std::vector<double> batch =
      BatchScores(reference, history, 0, values, lifetime, 80);
  for (std::size_t i : {0u, 1u, 2u, 3u, 5u}) {
    EXPECT_EQ(batch[i], 0.0) << "lane " << i;
    EXPECT_FALSE(std::signbit(batch[i])) << "lane " << i;
  }
  for (std::size_t i : {4u, 6u, 7u}) EXPECT_GT(batch[i], 0.0);
}

TEST(CachingHeebBatchTest, DuplicateAndNegativeValues) {
  StationaryProcess reference(
      DiscreteDistribution::TruncatedDiscretizedNormal(-2.0, 3.0, -9, 6));
  StreamHistory history({-2, 0});
  const std::vector<Value> values = {-3, 5, -3, -9, 0, -3, 6, -10, 5, 0, 7};
  ExpectBatchMatchesScalar(reference, history, 1, values, ExpLifetime(8.0),
                           120);
  ExpectBatchMatchesScalar(reference, history, 1, values, InverseLifetime(),
                           50);
  const std::vector<double> batch =
      BatchScores(reference, history, 1, values, ExpLifetime(8.0), 120);
  EXPECT_EQ(batch[0], batch[2]);  // Duplicate lanes score alike.
  EXPECT_EQ(batch[0], batch[5]);
  EXPECT_EQ(batch[1], batch[8]);
}

TEST(CachingHeebBatchTest, RandomWalkSupportWidensWithDt) {
  RandomWalkProcess reference(DiscreteDistribution::DiscretizedNormal(0.5, 1.0),
                              0);
  StreamHistory history({0, 1, 3});
  // Lanes near the anchor enter the support at dt = 1; lanes further out
  // only once the walk's spread reaches them; the extremes never do.
  std::vector<Value> values;
  for (Value v = -40; v <= 60; v += 3) values.push_back(v);
  values.push_back(3);
  values.push_back(-500);
  ExpectBatchMatchesScalar(reference, history, 2, values, ExpLifetime(10.0),
                           40);
  Rng rng(77);
  std::vector<Value> random_values;
  for (int i = 0; i < 64; ++i) random_values.push_back(rng.UniformInt(-30, 40));
  ExpectBatchMatchesScalar(reference, history, 2, random_values,
                           ExpLifetime(4.0), 30);
}

TEST(CachingHeebBatchTest, InteriorZeroMasses) {
  // In-range values with zero mass (-1, 0, 2) take the visited-lane path
  // with p = 0.0; out-of-range values take the skipped path.
  StationaryProcess reference(DiscreteDistribution::FromMasses(
      -2, {0.3, 0.0, 0.0, 0.5, 0.0, 0.2}));
  StreamHistory history({1});
  const std::vector<Value> values = {-3, -2, -1, 0, 1, 2, 3, 4, 1, -1};
  ExpectBatchMatchesScalar(reference, history, 0, values, ExpLifetime(5.0),
                           60);
  const std::vector<double> batch =
      BatchScores(reference, history, 0, values, ExpLifetime(5.0), 60);
  EXPECT_EQ(batch[2], 0.0);
  EXPECT_EQ(batch[3], 0.0);
  EXPECT_EQ(batch[5], 0.0);
  EXPECT_GT(batch[1], 0.0);
}

TEST(CachingHeebBatchTest, OfflineReferenceVisitsOneLanePerStep) {
  // A point mass per step: each step's support holds a single value. Past
  // the end of the sequence (dt > 10) the pmf is empty and no lane moves.
  OfflineProcess reference({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5});
  StreamHistory history({3});
  const std::vector<Value> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 0};
  ExpectBatchMatchesScalar(reference, history, 0, values, ExpLifetime(3.0),
                           14);
}

TEST(CachingHeebBatchTest, ZeroLanesWriteNothing) {
  StationaryProcess reference(DiscreteDistribution::BoundedUniform(0, 3));
  StreamHistory history({0});
  double sentinel = -7.0;
  CachingHeebBatch(reference, history, 0, nullptr, 0,
                   LifetimeTable(ExpLifetime(5.0), 20), &sentinel);
  EXPECT_EQ(sentinel, -7.0);
}

TEST(LifetimeFnTest, LifetimeTableHoldsAtValues) {
  ExpLifetime l(7.0);
  const std::vector<double> table = LifetimeTable(l, 30);
  ASSERT_EQ(table.size(), 30u);
  for (Time dt = 1; dt <= 30; ++dt) {
    EXPECT_EQ(table[static_cast<std::size_t>(dt - 1)], l.At(dt));
  }
  EXPECT_TRUE(LifetimeTable(l, 0).empty());
}

}  // namespace
}  // namespace sjoin
