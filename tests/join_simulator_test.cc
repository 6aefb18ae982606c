#include "sjoin/engine/join_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sjoin/engine/scored_policy.h"

namespace sjoin {
namespace {

// Keeps the most recently arrived tuples.
class KeepNewestPolicy final : public ScoredPolicy {
 public:
  const char* name() const override { return "KEEP-NEWEST"; }

 protected:
  double Score(const Tuple& tuple, std::uint32_t /*lane*/,
               const PolicyContext& ctx) override {
    (void)ctx;
    return static_cast<double>(tuple.arrival);
  }
};

// Keeps the oldest tuples (never admits new arrivals once full).
class KeepOldestPolicy final : public ScoredPolicy {
 public:
  const char* name() const override { return "KEEP-OLDEST"; }

 protected:
  double Score(const Tuple& tuple, std::uint32_t /*lane*/,
               const PolicyContext& ctx) override {
    (void)ctx;
    return -static_cast<double>(tuple.arrival);
  }
};

TEST(JoinSimulatorTest, CountsJoinAgainstPreviousCache) {
  // R: 1 2 3 ; S: 9 1 1. S tuple at t=1 and t=2 has value 1, matching the
  // cached R tuple from t=0.
  JoinSimulator sim({.capacity = 4, .warmup = 0});
  KeepNewestPolicy policy;
  auto result = sim.Run({1, 2, 3}, {9, 1, 1}, policy);
  EXPECT_EQ(result.total_results, 2);
  EXPECT_EQ(result.counted_results, 2);
}

TEST(JoinSimulatorTest, SameTimeArrivalsDoNotCount) {
  JoinSimulator sim({.capacity = 4, .warmup = 0});
  KeepNewestPolicy policy;
  // Matching values only ever co-arrive.
  auto result = sim.Run({5, 6, 7}, {5, 6, 7}, policy);
  EXPECT_EQ(result.total_results, 0);
}

TEST(JoinSimulatorTest, DuplicateCachedTuplesEachProduceAResult) {
  JoinSimulator sim({.capacity = 4, .warmup = 0});
  KeepNewestPolicy policy;
  // Two R tuples with value 1 cached at t=0,1; S value 1 arrives at t=2.
  auto result = sim.Run({1, 1, 9}, {8, 8, 1}, policy);
  EXPECT_EQ(result.total_results, 2);
}

TEST(JoinSimulatorTest, WarmupExcludesEarlyResults) {
  JoinSimulator sim({.capacity = 4, .warmup = 2});
  KeepNewestPolicy policy;
  auto result = sim.Run({1, 9, 9}, {8, 1, 1}, policy);
  EXPECT_EQ(result.total_results, 2);   // Joins at t=1 and t=2.
  EXPECT_EQ(result.counted_results, 1); // Only the join at t=2 counts.
}

TEST(JoinSimulatorTest, EvictionPreventsJoin) {
  // Capacity 2: after step 1 the cache holds the two newest tuples, so the
  // R tuple with value 1 from t=0 was evicted when S value 1 arrives late.
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  KeepNewestPolicy policy;
  auto result = sim.Run({1, 9, 9}, {8, 8, 1}, policy);
  EXPECT_EQ(result.total_results, 0);
}

TEST(JoinSimulatorTest, KeepOldestRetainsEarlyTuples) {
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  KeepOldestPolicy policy;
  // Cache keeps R(1) and S(8) from t=0 forever.
  auto result = sim.Run({1, 9, 9, 9}, {8, 1, 1, 1}, policy);
  EXPECT_EQ(result.total_results, 3);
}

TEST(JoinSimulatorTest, SlidingWindowExpiresTuples) {
  JoinSimulator sim({.capacity = 4, .warmup = 0, .window = Time{1}});
  KeepNewestPolicy policy;
  // R(1) arrives at t=0; S(1) arrives at t=2 — outside window 1.
  auto result = sim.Run({1, 9, 9}, {8, 8, 1}, policy);
  EXPECT_EQ(result.total_results, 0);
  // With window 2 it counts.
  JoinSimulator sim2({.capacity = 4, .warmup = 0, .window = Time{2}});
  auto result2 = sim2.Run({1, 9, 9}, {8, 8, 1}, policy);
  EXPECT_EQ(result2.total_results, 1);
}

TEST(JoinSimulatorTest, TracksCacheComposition) {
  JoinSimulator sim({.capacity = 2,
                     .warmup = 0,
                     .window = std::nullopt,
                     .track_cache_composition = true});
  KeepNewestPolicy policy;
  auto result = sim.Run({1, 2}, {3, 4}, policy);
  ASSERT_EQ(result.r_fraction_by_time.size(), 2u);
  // Keep-newest retains the two arrivals of the step: one R, one S.
  EXPECT_DOUBLE_EQ(result.r_fraction_by_time[0], 0.5);
  EXPECT_DOUBLE_EQ(result.r_fraction_by_time[1], 0.5);
}

TEST(JoinSimulatorTest, TupleIdConvention) {
  // A policy that records the ids it sees; verifies the 2t / 2t+1 scheme.
  class RecordingPolicy final : public ScoredPolicy {
   public:
    const char* name() const override { return "RECORDING"; }
    std::vector<Tuple> seen;

   protected:
    void BeginStep(const PolicyContext& ctx) override {
      for (const Tuple& t : *ctx.arrivals) seen.push_back(t);
    }
    double Score(const Tuple& tuple, std::uint32_t /*lane*/,
                 const PolicyContext& ctx) override {
      (void)tuple;
      (void)ctx;
      return 0.0;
    }
  };
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  RecordingPolicy policy;
  sim.Run({10, 20}, {30, 40}, policy);
  ASSERT_EQ(policy.seen.size(), 4u);
  for (const Tuple& t : policy.seen) {
    EXPECT_EQ(t.id, TupleIdAt(t.side, t.arrival));
  }
}

TEST(JoinSimulatorTest, PolicySeesHistoriesIncludingNow) {
  class HistoryCheckPolicy final : public ScoredPolicy {
   public:
    const char* name() const override { return "HISTCHECK"; }

   protected:
    void BeginStep(const PolicyContext& ctx) override {
      EXPECT_EQ(ctx.history_r->size(), ctx.now + 1);
      EXPECT_EQ(ctx.history_s->size(), ctx.now + 1);
    }
    double Score(const Tuple& tuple, std::uint32_t /*lane*/,
                 const PolicyContext& ctx) override {
      (void)tuple;
      (void)ctx;
      return 0.0;
    }
  };
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  HistoryCheckPolicy policy;
  sim.Run({1, 2, 3}, {4, 5, 6}, policy);
}

}  // namespace
}  // namespace sjoin
