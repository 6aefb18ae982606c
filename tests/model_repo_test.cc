// The ModelRepo acceptance criterion: every model artifact is built
// exactly once per distinct content key, identical requests share one
// object, and the typed wrappers hand out the same tables a direct
// Precompute* call would.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "sjoin/core/model_repo.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/core/precompute.h"
#include "sjoin/stochastic/ar1_process.h"
#include "sjoin/stochastic/discrete_distribution.h"
#include "sjoin/stochastic/random_walk_process.h"

namespace sjoin {
namespace {

RandomWalkProcess TestWalk() {
  return RandomWalkProcess(
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.5, -5, 5), 0);
}

TEST(ModelRepoTest, BuildsOncePerKeyAndSharesTheArtifact) {
  // A local repo keeps the counters independent of whatever other tests
  // pushed through Global().
  ModelRepo repo;
  const RandomWalkProcess walk = TestWalk();

  std::shared_ptr<const OffsetTable> first =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  std::shared_ptr<const OffsetTable> second =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  // Same key -> the very same object, not an equal copy.
  EXPECT_EQ(first.get(), second.get());

  // A different parameter anywhere in the key is a different artifact.
  std::shared_ptr<const OffsetTable> other_alpha =
      repo.WalkJoinHeebTable(walk, 20.0, 60);
  EXPECT_NE(first.get(), other_alpha.get());

  ModelRepo::Stats stats = repo.stats();
  EXPECT_EQ(stats.lookups, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.builds, 2);
}

TEST(ModelRepoTest, BuildCountStaysOneUnderRepeatedAndConcurrentLookups) {
  ModelRepo repo;
  const std::string key = "test-offset";
  auto build = [] { return OffsetTable(-1, {0.25, 0.5, 0.25}); };

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 50; ++j) {
        std::shared_ptr<const OffsetTable> table =
            repo.OffsetTableFor(key, build);
        ASSERT_EQ(table->values().size(), 3u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(repo.BuildCount(key), 1);
  ModelRepo::Stats stats = repo.stats();
  EXPECT_EQ(stats.lookups, kThreads * 50);
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, stats.lookups - 1);
  // A key never asked for was never built.
  EXPECT_EQ(repo.BuildCount("never-requested"), 0);
}

TEST(ModelRepoTest, TypedWrappersMatchDirectPrecompute) {
  ModelRepo repo;
  const RandomWalkProcess walk = TestWalk();

  std::shared_ptr<const OffsetTable> join =
      repo.WalkJoinHeebTable(walk, 8.0, 40);
  OffsetTable direct_join = PrecomputeWalkJoinHeeb(walk, ExpLifetime(8.0), 40);
  EXPECT_EQ(join->min_offset(), direct_join.min_offset());
  EXPECT_EQ(join->values(), direct_join.values());

  std::shared_ptr<const OffsetTable> caching =
      repo.WalkCachingHeebTable(walk, 8.0, 40, 30);
  OffsetTable direct_caching =
      PrecomputeWalkCachingHeeb(walk, ExpLifetime(8.0), 40, 30);
  EXPECT_EQ(caching->min_offset(), direct_caching.min_offset());
  EXPECT_EQ(caching->values(), direct_caching.values());
}

TEST(ModelRepoTest, BicubicSharesItsSurfaceDependency) {
  ModelRepo repo;
  const Ar1Process ar1(0.0, 0.9, 2.0, 0);

  // Tiny grid / path count: this test pins sharing, not accuracy.
  std::shared_ptr<const BicubicSurface> bicubic =
      repo.Ar1CachingSurfaceBicubic(ar1, 6.0, 20, -8, 8, -8, 8, 2, 16, 99,
                                    4, 4);
  ASSERT_NE(bicubic, nullptr);
  ModelRepo::Stats after_first = repo.stats();
  // One surface build plus one bicubic build.
  EXPECT_EQ(after_first.builds, 2);

  // Asking for the exact surface now hits the entry the bicubic resolved.
  std::shared_ptr<const HeebSurfaceTable> surface =
      repo.Ar1CachingSurfaceTable(ar1, 6.0, 20, -8, 8, -8, 8, 2, 16, 99);
  ASSERT_NE(surface, nullptr);
  EXPECT_EQ(repo.stats().builds, 2);

  // A second identical bicubic request builds nothing at all.
  std::shared_ptr<const BicubicSurface> again =
      repo.Ar1CachingSurfaceBicubic(ar1, 6.0, 20, -8, 8, -8, 8, 2, 16, 99,
                                    4, 4);
  EXPECT_EQ(bicubic.get(), again.get());
  EXPECT_EQ(repo.stats().builds, 2);

  // A different compression grid shares the surface but not the bicubic.
  repo.Ar1CachingSurfaceBicubic(ar1, 6.0, 20, -8, 8, -8, 8, 2, 16, 99, 5, 5);
  EXPECT_EQ(repo.stats().builds, 3);
}

TEST(ModelRepoTest, ClearDropsEntriesButBorrowsSurvive) {
  ModelRepo repo;
  const RandomWalkProcess walk = TestWalk();
  std::shared_ptr<const OffsetTable> borrow =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  const std::vector<double> values = borrow->values();

  repo.Clear();
  EXPECT_EQ(repo.stats().builds, 0);
  // The borrow outlives the cache entry.
  EXPECT_EQ(borrow->values(), values);
  // After Clear the key rebuilds (counter reset, so no double-build trip).
  std::shared_ptr<const OffsetTable> rebuilt =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  EXPECT_NE(borrow.get(), rebuilt.get());
  EXPECT_EQ(rebuilt->values(), values);
}

// The WALK configuration's step pmf (bench/harness/configs.cc, perfbench's
// serve-model walk sessions).
RandomWalkProcess WalkConfigWalk() {
  return RandomWalkProcess(DiscreteDistribution::DiscretizedNormal(0.0, 1.0),
                           0);
}

std::int64_t Bytes(const std::vector<double>& v) {
  return static_cast<std::int64_t>(v.size() * sizeof(double));
}

// Bytes of the convolution ladder S_1..S_horizon of `walk`'s step pmf,
// grown on a private copy so `walk` is left as it was.
std::int64_t LadderBytes(const RandomWalkProcess& walk, Time horizon) {
  const RandomWalkProcess copy(walk.step(), 0);
  std::int64_t bytes = 0;
  for (Time n = 1; n <= horizon; ++n) {
    bytes += Bytes(copy.StepSum(n).masses());
  }
  return bytes;
}

// Bitwise equality against a per-process PrecomputeWalkJoinHeeb on a fresh
// copy of the walk (its own ladder, the pre-repo-ladder construction).
void ExpectBitIdenticalToPerProcess(const OffsetTable& table,
                                    const RandomWalkProcess& walk,
                                    double alpha, Time horizon) {
  const RandomWalkProcess own(walk.step(), walk.initial_value());
  const OffsetTable direct =
      PrecomputeWalkJoinHeeb(own, ExpLifetime(alpha), horizon);
  ASSERT_EQ(table.min_offset(), direct.min_offset());
  ASSERT_EQ(table.values().size(), direct.values().size());
  EXPECT_EQ(std::memcmp(table.values().data(), direct.values().data(),
                        table.values().size() * sizeof(double)),
            0)
      << "alpha=" << alpha << " horizon=" << horizon;
}

TEST(ModelRepoTest, BytesCountOneLadderPerStepPmfPlusEachTable) {
  ModelRepo repo;
  const RandomWalkProcess walk = TestWalk();
  EXPECT_EQ(repo.stats().bytes, 0);

  // Support -5..5 (11 masses): S_n has 10n + 1, so S_1..S_60 hold
  // 18360 doubles and the table spans S_60's 601 offsets.
  std::shared_ptr<const OffsetTable> first =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  EXPECT_EQ(LadderBytes(walk, 60), 18360 * 8);
  EXPECT_EQ(Bytes(first->values()), 601 * 8);
  EXPECT_EQ(repo.stats().bytes, (18360 + 601) * 8);

  // A second and third alpha on the same step run no convolution: each
  // adds exactly its own table.
  std::shared_ptr<const OffsetTable> second =
      repo.WalkJoinHeebTable(walk, 20.0, 60);
  std::shared_ptr<const OffsetTable> third =
      repo.WalkJoinHeebTable(walk, 30.0, 60);
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 60) +
                                    Bytes(first->values()) +
                                    Bytes(second->values()) +
                                    Bytes(third->values()));
  EXPECT_EQ(repo.stats().builds, 3);

  // A hit adds nothing.
  repo.WalkJoinHeebTable(walk, 20.0, 60);
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 60) +
                                    Bytes(first->values()) +
                                    Bytes(second->values()) +
                                    Bytes(third->values()));

  repo.Clear();
  EXPECT_EQ(repo.stats().bytes, 0);
  // Clear dropped the ladder too: the next build pays for it again.
  std::shared_ptr<const OffsetTable> rebuilt =
      repo.WalkJoinHeebTable(walk, 10.0, 60);
  EXPECT_EQ(repo.stats().bytes,
            LadderBytes(walk, 60) + Bytes(rebuilt->values()));
}

TEST(ModelRepoTest, WalkTablesFromTheSharedLadderAreBitIdentical) {
  ModelRepo repo;
  const RandomWalkProcess walk = WalkConfigWalk();
  constexpr double kAlphas[] = {150.0, 200.0, 250.0, 300.0};
  std::int64_t table_bytes = 0;
  for (double alpha : kAlphas) {
    std::shared_ptr<const OffsetTable> table =
        repo.WalkJoinHeebTable(walk, alpha, 80);
    ExpectBitIdenticalToPerProcess(*table, walk, alpha, 80);
    table_bytes += Bytes(table->values());
  }
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 80) + table_bytes);

  // A longer horizon grows the one ladder from S_80 to S_150 in place.
  std::shared_ptr<const OffsetTable> longer =
      repo.WalkJoinHeebTable(walk, 200.0, 150);
  ExpectBitIdenticalToPerProcess(*longer, walk, 200.0, 150);
  table_bytes += Bytes(longer->values());
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 150) + table_bytes);
  // A shorter horizon after the growth reads a prefix of the ladder.
  std::shared_ptr<const OffsetTable> shorter =
      repo.WalkJoinHeebTable(walk, 175.0, 40);
  ExpectBitIdenticalToPerProcess(*shorter, walk, 175.0, 40);
  table_bytes += Bytes(shorter->values());
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 150) + table_bytes);
  EXPECT_EQ(repo.stats().builds, 6);
}

TEST(ModelRepoTest, ADriftedStepPmfGetsItsOwnLadder) {
  ModelRepo repo;
  const RandomWalkProcess walk = WalkConfigWalk();
  // Same support bounds, different masses: only the full pmf tells the
  // two ladders apart.
  const RandomWalkProcess drift(
      DiscreteDistribution::TruncatedDiscretizedNormal(
          0.5, 1.0, walk.step().MinValue(), walk.step().MaxValue()),
      0);
  ASSERT_EQ(drift.step().MinValue(), walk.step().MinValue());
  ASSERT_EQ(drift.step().MaxValue(), walk.step().MaxValue());

  std::shared_ptr<const OffsetTable> flat =
      repo.WalkJoinHeebTable(walk, 200.0, 80);
  std::shared_ptr<const OffsetTable> drifted =
      repo.WalkJoinHeebTable(drift, 200.0, 80);
  ExpectBitIdenticalToPerProcess(*flat, walk, 200.0, 80);
  ExpectBitIdenticalToPerProcess(*drifted, drift, 200.0, 80);
  EXPECT_NE(flat->values(), drifted->values());
  EXPECT_EQ(repo.stats().bytes, LadderBytes(walk, 80) +
                                    LadderBytes(drift, 80) +
                                    Bytes(flat->values()) +
                                    Bytes(drifted->values()));
}

TEST(ModelRepoTest, ConcurrentAlphasOnOneStepShareTheLadder) {
  const RandomWalkProcess walk = WalkConfigWalk();
  constexpr double kAlphas[] = {150.0, 200.0, 250.0, 300.0};

  ModelRepo serial;
  std::vector<std::shared_ptr<const OffsetTable>> expected;
  for (double alpha : kAlphas) {
    expected.push_back(serial.WalkJoinHeebTable(walk, alpha, 80));
  }

  ModelRepo repo;
  std::vector<std::shared_ptr<const OffsetTable>> tables(std::size(kAlphas));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < std::size(kAlphas); ++i) {
    threads.emplace_back([&, i] {
      tables[i] = repo.WalkJoinHeebTable(walk, kAlphas[i], 80);
    });
  }
  for (std::thread& t : threads) t.join();

  ModelRepo::Stats stats = repo.stats();
  EXPECT_EQ(stats.builds, 4);
  EXPECT_EQ(stats.bytes, serial.stats().bytes);
  for (std::size_t i = 0; i < std::size(kAlphas); ++i) {
    ASSERT_EQ(tables[i]->min_offset(), expected[i]->min_offset());
    ASSERT_EQ(tables[i]->values().size(), expected[i]->values().size());
    EXPECT_EQ(std::memcmp(tables[i]->values().data(),
                          expected[i]->values().data(),
                          tables[i]->values().size() * sizeof(double)),
              0)
        << "alpha=" << kAlphas[i];
  }
}

TEST(ModelRepoTest, GlobalIsOneRepo) {
  EXPECT_EQ(&ModelRepo::Global(), &ModelRepo::Global());
}

}  // namespace
}  // namespace sjoin
