// RankTopK: the insertion-first top-k shared by every selection site
// (ScoredPolicy, ScoredCachingPolicy, KeepBestRanked and MULTI-HEEB),
// checked against nth_element + prefix sort on sorted, nearly sorted,
// reversed, interleaved and random inputs, on every path.

#include "sjoin/engine/ranked_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/types.h"

namespace sjoin {
namespace {

/// Ids of the best `keep` candidates by the reference method.
std::vector<TupleId> ReferenceTopK(std::vector<RankedTuple> ranked,
                                   std::size_t keep) {
  keep = std::min(keep, ranked.size());
  if (keep < ranked.size()) {
    std::nth_element(ranked.begin(), ranked.begin() + keep, ranked.end(),
                     RankedTupleBetter);
  }
  std::sort(ranked.begin(), ranked.begin() + keep, RankedTupleBetter);
  std::vector<TupleId> ids;
  for (std::size_t i = 0; i < keep; ++i) ids.push_back(ranked[i].id);
  return ids;
}

/// Runs RankTopK on a copy; fills the prefix ids and returns whether the
/// insertion pass stayed within its budget.
bool RunTopK(std::vector<RankedTuple> ranked, std::size_t keep,
             std::vector<TupleId>* ids) {
  const bool within_budget =
      RankTopK(ranked.data(), ranked.size(), keep, RankedTupleBetter);
  ids->clear();
  for (std::size_t i = 0; i < std::min(keep, ranked.size()); ++i) {
    ids->push_back(ranked[i].id);
  }
  return within_budget;
}

/// `n` candidates with distinct scores, best first.
std::vector<RankedTuple> Sorted(std::size_t n) {
  std::vector<RankedTuple> ranked;
  for (std::size_t i = 0; i < n; ++i) {
    ranked.push_back({static_cast<double>(n - i), static_cast<Time>(i % 7),
                      static_cast<TupleId>(i)});
  }
  return ranked;
}

std::vector<RankedTuple> Random(std::size_t n, Rng& rng) {
  std::vector<RankedTuple> ranked;
  for (std::size_t i = 0; i < n; ++i) {
    ranked.push_back({rng.UniformReal(), rng.UniformInt(0, 5),
                      static_cast<TupleId>(i)});
  }
  return ranked;
}

/// A cached run in last step's order with a few adjacent swaps, followed
/// by `arrivals` random arrivals — the shape a selection step sees.
std::vector<RankedTuple> NearlySortedWithArrivals(std::size_t cached,
                                                  std::size_t arrivals,
                                                  Rng& rng) {
  std::vector<RankedTuple> ranked = Sorted(cached);
  for (std::size_t i = 0; i + 1 < cached; i += 9) {
    std::swap(ranked[i].score, ranked[i + 1].score);
  }
  for (std::size_t a = 0; a < arrivals; ++a) {
    ranked.push_back({static_cast<double>(rng.UniformInt(0, cached + 1)) + 0.5,
                      100, static_cast<TupleId>(cached + a)});
  }
  return ranked;
}

TEST(RankTopKTest, SortedInputStaysOnTheInsertionPath) {
  const std::vector<RankedTuple> ranked = Sorted(200);
  for (std::size_t keep : {0u, 1u, 199u, 200u, 500u}) {
    std::vector<TupleId> ids;
    EXPECT_TRUE(RunTopK(ranked, keep, &ids)) << "keep " << keep;
    EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
  }
}

TEST(RankTopKTest, NearlySortedRunWithArrivalsStaysOnTheInsertionPath) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    // A 5-way star step: 100 cached tuples plus 5 arrivals. Each arrival
    // may travel the whole run, and the budget still covers all five.
    const std::vector<RankedTuple> ranked =
        NearlySortedWithArrivals(100, 5, rng);
    for (std::size_t keep : {0u, 1u, 99u, 100u, 104u, 105u}) {
      std::vector<TupleId> ids;
      EXPECT_TRUE(RunTopK(ranked, keep, &ids)) << "keep " << keep;
      EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
    }
  }
}

TEST(RankTopKTest, ReversedInputFallsBackAndStillMatches) {
  // n - 1 descents: the pre-scan skips the insertion pass for every keep.
  std::vector<RankedTuple> ranked = Sorted(300);
  std::reverse(ranked.begin(), ranked.end());
  for (std::size_t keep : {1u, 299u, 300u}) {
    std::vector<TupleId> ids;
    EXPECT_FALSE(RunTopK(ranked, keep, &ids)) << "keep " << keep;
    EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
  }
}

TEST(RankTopKTest, FewDescentsWithLongTravelHitTheMoveBudget) {
  // Two interleaved sorted runs: one descent, which the pre-scan lets
  // through, but each entry of the second run travels about n/4 places,
  // so the insertion pass exceeds its budget and falls back.
  std::vector<RankedTuple> ranked;
  const std::size_t half = 150;
  for (std::size_t i = 0; i < half; ++i) {
    ranked.push_back({static_cast<double>(2 * (half - i)), 0,
                      static_cast<TupleId>(i)});
  }
  for (std::size_t i = 0; i < half; ++i) {
    ranked.push_back({static_cast<double>(2 * (half - i)) - 1.0, 0,
                      static_cast<TupleId>(half + i)});
  }
  for (std::size_t keep : {1u, 150u, 300u}) {
    std::vector<TupleId> ids;
    const bool insertion = RunTopK(ranked, keep, &ids);
    EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
    // keep = 1 only compares each entry with the current best.
    EXPECT_EQ(insertion, keep == 1) << "keep " << keep;
  }
}

TEST(RankTopKTest, RandomInputForcesTheFallbackAndStillMatches) {
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<RankedTuple> ranked = Random(400, rng);
    for (std::size_t keep : {200u, 399u, 400u}) {
      std::vector<TupleId> ids;
      EXPECT_FALSE(RunTopK(ranked, keep, &ids)) << "keep " << keep;
      EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
    }
  }
}

TEST(RankTopKTest, TiesBreakByArrivalThenId) {
  // Equal scores rank the later arrival first; equal score and arrival
  // rank the larger id first.
  const std::vector<RankedTuple> ranked = {{1.0, 3, 10}, {2.0, 1, 11},
                                           {1.0, 5, 12}, {1.0, 5, 13},
                                           {2.0, 1, 14}, {0.5, 9, 15}};
  const std::vector<TupleId> expected = {14, 11, 13, 12, 10, 15};
  for (std::size_t keep = 0; keep <= ranked.size(); ++keep) {
    std::vector<TupleId> ids;
    RunTopK(ranked, keep, &ids);
    EXPECT_EQ(ids, std::vector<TupleId>(expected.begin(),
                                        expected.begin() + keep))
        << "keep " << keep;
    EXPECT_EQ(ids, ReferenceTopK(ranked, keep)) << "keep " << keep;
  }
}

TEST(RankTopKTest, EmptyAndSingleCandidate) {
  std::vector<TupleId> ids;
  EXPECT_TRUE(RunTopK({}, 0, &ids));
  EXPECT_TRUE(ids.empty());
  EXPECT_TRUE(RunTopK({}, 3, &ids));
  EXPECT_TRUE(ids.empty());
  const std::vector<RankedTuple> one = {{0.25, 2, 7}};
  EXPECT_TRUE(RunTopK(one, 0, &ids));
  EXPECT_TRUE(ids.empty());
  EXPECT_TRUE(RunTopK(one, 1, &ids));
  EXPECT_EQ(ids, std::vector<TupleId>{7});
}

TEST(RankTopKTest, RandomShapesMatchTheReference) {
  Rng rng(19);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(0, 160));
    std::vector<RankedTuple> ranked;
    switch (trial % 4) {
      case 0:
        ranked = Sorted(n);
        break;
      case 1:
        ranked = NearlySortedWithArrivals(
            n, static_cast<std::size_t>(rng.UniformInt(0, 8)), rng);
        break;
      case 2:
        ranked = Sorted(n);
        std::reverse(ranked.begin(), ranked.end());
        break;
      default:
        ranked = Random(n, rng);
        break;
    }
    const std::size_t size = ranked.size();
    const std::size_t keeps[] = {0, size > 0 ? size - 1 : 0, size,
                                 static_cast<std::size_t>(
                                     rng.UniformInt(0, size + 2))};
    for (std::size_t keep : keeps) {
      std::vector<TupleId> ids;
      RunTopK(ranked, keep, &ids);
      EXPECT_EQ(ids, ReferenceTopK(ranked, keep))
          << "trial " << trial << " n " << size << " keep " << keep;
    }
  }
}

TEST(RankTopKTest, BudgetCoversAStarStepOfArrivals) {
  // Five arrivals each crossing a 105-candidate run.
  EXPECT_GE(RankTopKMoveBudget(105), 5u * 105u);
  EXPECT_EQ(RankTopKMoveBudget(0), 64u);
  // The pre-scan lets through the descents such a step shows, and stops
  // well short of the n/2 that random scores have.
  EXPECT_GE(RankTopKDescentLimit(105), 5u + 9u);
  EXPECT_LT(RankTopKDescentLimit(400), 400u / 2u - 60u);
}

TEST(RankTopKTest, KeepBestRankedReturnsTheRankedIds) {
  Rng rng(20);
  const std::vector<RankedTuple> ranked = NearlySortedWithArrivals(30, 3, rng);
  for (std::size_t capacity : {0u, 10u, 33u, 40u}) {
    EXPECT_EQ(KeepBestRanked(ranked, capacity),
              ReferenceTopK(ranked, capacity))
        << "capacity " << capacity;
  }
}

}  // namespace
}  // namespace sjoin
