// The differential matrix as test cases: one gtest per (suite x config)
// pair of sjoin/testing/differential.h, registered at startup as
// `differential.<suite>/<config>` and discovered into ctest one entry per
// pair (label `differential`). Trial counts come from SJOIN_DIFF_TRIALS
// when set (CI sanitizer jobs run 100); a failure prints the reproducing
// fuzz_differential command. Select pairs locally with --gtest_filter,
// e.g. --gtest_filter='*/s4t4'.

#include <gtest/gtest.h>

#include <string>

#include "sjoin/testing/differential.h"

namespace sjoin {
namespace testing {
namespace {

class DifferentialPairTest : public ::testing::Test {
 public:
  explicit DifferentialPairTest(DifferentialPair pair) : pair_(pair) {}

  void TestBody() override {
    const DifferentialReport report = RunDifferentialPair(
        pair_, kDifferentialBaseSeed,
        TrialCountFromEnv(pair_.suite->default_trials));
    EXPECT_TRUE(report.ok()) << report.Summary();
  }

 private:
  DifferentialPair pair_;
};

}  // namespace
}  // namespace testing
}  // namespace sjoin

int main(int argc, char** argv) {
  using sjoin::testing::DifferentialPair;
  using sjoin::testing::DifferentialPairTest;
  ::testing::InitGoogleTest(&argc, argv);
  for (const DifferentialPair& pair : sjoin::testing::DifferentialMatrix()) {
    const std::string name = pair.name();
    ::testing::RegisterTest(
        "differential", name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
        [pair]() -> DifferentialPairTest* {
          return new DifferentialPairTest(pair);
        });
  }
  return RUN_ALL_TESTS();
}
