// PredictionRing: the per-stream ring of partner predictions that
// MultiHeebPolicy and EdgeBudgetPolicy score against. Independent streams
// predict only the times that newly enter the horizon; dependent streams,
// the first Advance, Reset, a backwards `now` and a jump of a whole
// horizon re-predict everything. Every slot must equal a fresh Predict().

#include "sjoin/engine/prediction_ring.h"

#include <gtest/gtest.h>

#include <vector>

#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/scripted_process.h"

namespace sjoin {
namespace {

constexpr Time kHorizon = 10;

/// Stream 0 is a linear trend (independent), stream 1 a random walk
/// (history-dependent), stream 2 a short script whose predictions past its
/// end are empty pmfs (independent).
struct Fixture {
  Fixture()
      : trend(1.0, 0.0,
              DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.0, -2,
                                                               2)),
        walk(DiscreteDistribution::BoundedUniform(-1, 1), 0),
        script({DiscreteDistribution::PointMass(3),
                DiscreteDistribution::BoundedUniform(1, 4),
                DiscreteDistribution::PointMass(5)}),
        processes{&trend, &walk, &script},
        histories(3) {}

  /// Appends one observation per stream up to time `now` (inclusive).
  void ObserveThrough(Time now) {
    while (histories[0].size() <= now) {
      const Time t = histories[0].size();
      histories[0].Append(static_cast<Value>(t));
      histories[1].Append(static_cast<Value>(t % 3));
      histories[2].Append(3);
    }
  }

  /// Every slot of `ring` equals a fresh Predict for the current
  /// histories, and the flattened slot view agrees with the pmf.
  void ExpectFresh(const PredictionRing& ring, Time now) const {
    for (int s = 0; s < 3; ++s) {
      for (Time t = now + 1; t <= now + kHorizon; ++t) {
        const DiscreteDistribution want =
            processes[static_cast<std::size_t>(s)]->Predict(
                histories[static_cast<std::size_t>(s)], t);
        const DiscreteDistribution& got = ring.pmf(s, t);
        ASSERT_EQ(got.IsEmpty(), want.IsEmpty()) << s << " t=" << t;
        const PredictionRing::Slot& slot =
            ring.slots(s)[ring.RingIndex(t)];
        if (want.IsEmpty()) {
          EXPECT_LT(slot.hi, slot.lo) << s << " t=" << t;
          continue;
        }
        EXPECT_EQ(got.MinValue(), want.MinValue()) << s << " t=" << t;
        EXPECT_EQ(got.masses(), want.masses()) << s << " t=" << t;
        EXPECT_EQ(slot.lo, want.MinValue());
        EXPECT_EQ(slot.hi, want.MaxValue());
        EXPECT_EQ(slot.masses, got.masses().data());
      }
    }
  }

  LinearTrendProcess trend;
  RandomWalkProcess walk;
  ScriptedProcess script;
  std::vector<const StochasticProcess*> processes;
  std::vector<StreamHistory> histories;
};

TEST(PredictionRingTest, IndependentStreamsPredictOnlyNewTimes) {
  Fixture f;
  PredictionRing ring(kHorizon);
  // Each step: three full streams on a rebuild; otherwise the walk
  // re-predicts its horizon and each independent stream only the times
  // that entered it.
  auto advance = [&](Time now) {
    f.ObserveThrough(now);
    const std::int64_t before = ring.predictions();
    ring.Advance(f.processes, f.histories, now);
    f.ExpectFresh(ring, now);
    return ring.predictions() - before;
  };
  EXPECT_EQ(advance(0), 3 * kHorizon);       // First Advance: rebuild.
  EXPECT_EQ(advance(1), kHorizon + 2 * 1);   // One new time each.
  EXPECT_EQ(advance(4), kHorizon + 2 * 3);   // Three new times each.
  EXPECT_EQ(advance(4), kHorizon);           // Same now: nothing new.
  EXPECT_EQ(advance(13), kHorizon + 2 * 9);  // A jump short of the horizon.
  EXPECT_EQ(advance(23), 3 * kHorizon);      // A whole horizon: rebuild.
}

TEST(PredictionRingTest, ResetAndBackwardsTimeRebuild) {
  Fixture first_run;
  first_run.ObserveThrough(20);
  PredictionRing ring(kHorizon);
  ring.Advance(first_run.processes, first_run.histories, 20);
  // A new run restarting at an earlier time without a Reset.
  Fixture f;
  f.ObserveThrough(5);
  std::int64_t before = ring.predictions();
  ring.Advance(f.processes, f.histories, 5);
  EXPECT_EQ(ring.predictions() - before, 3 * kHorizon);
  f.ExpectFresh(ring, 5);
  f.ObserveThrough(6);
  before = ring.predictions();
  ring.Reset();
  ring.Advance(f.processes, f.histories, 6);
  EXPECT_EQ(ring.predictions() - before, 3 * kHorizon);
  f.ExpectFresh(ring, 6);
}

TEST(PredictionRingTest, HorizonOneWalksASingleSlot) {
  Fixture f;
  PredictionRing ring(1);
  for (Time now = 0; now < 5; ++now) {
    f.ObserveThrough(now);
    ring.Advance(f.processes, f.histories, now);
    EXPECT_EQ(ring.RingIndex(now + 1), 0u);
    for (int s = 0; s < 3; ++s) {
      const DiscreteDistribution want =
          f.processes[static_cast<std::size_t>(s)]->Predict(
              f.histories[static_cast<std::size_t>(s)], now + 1);
      EXPECT_EQ(ring.pmf(s, now + 1).masses(), want.masses());
    }
  }
}

}  // namespace
}  // namespace sjoin
