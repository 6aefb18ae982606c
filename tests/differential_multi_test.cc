// Differential suite for the runtime probe planner (DESIGN.md §2f):
// planned multi-way runs — re-planned probe order, empty-partner skips,
// the (partner, value) probe-result cache, and the policies' score memos —
// against the naive fixed-order engine on 3-way chain and 5-way star
// topologies, bit for bit on full per-step traces, plus rerun determinism
// of the planner statistics. (The SJOIN_DIFF_MULTI env hook additionally
// reruns each trial through the MultiJoinSimulator façade and the sharded
// engine's serial fallback; CI's TSan job runs with it set.) A second suite
// checks MultiHeebPolicy against the definitional naive MULTI-HEEB oracle,
// score by score.

#include <gtest/gtest.h>

#include "sjoin/testing/differential.h"

namespace sjoin {
namespace testing {
namespace {

TEST(DifferentialMultiTest, PlannedMultiWayRunsMatchNaiveBitForBit) {
  const DifferentialSuite* suite = FindDifferentialSuite("multi_planner");
  ASSERT_NE(suite, nullptr);
  DifferentialReport report = RunDifferentialSuite(
      *suite, kDifferentialBaseSeed, TrialCountFromEnv(suite->default_trials));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DifferentialMultiTest, MultiHeebMatchesNaiveOracleBitForBit) {
  const DifferentialSuite* suite = FindDifferentialSuite("multi_heeb");
  ASSERT_NE(suite, nullptr);
  DifferentialReport report = RunDifferentialSuite(
      *suite, kDifferentialBaseSeed, TrialCountFromEnv(suite->default_trials));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace testing
}  // namespace sjoin
