// Coverage guard for the differential matrix (sjoin/testing/differential.h):
// the enumerated (suite x config) pairs are exactly the list committed in
// EXPERIMENTS.md ("Verification layer"), pair names are unique, and no
// suite is paired with a config that moves only axes the suite never
// reads (such a pair would rerun the default trial under another name).

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "sjoin/testing/differential.h"

namespace sjoin {
namespace testing {
namespace {

/// The lines of the ```differential-pairs fenced block in EXPERIMENTS.md.
std::vector<std::string> CommittedPairs() {
  std::ifstream in(SJOIN_EXPERIMENTS_MD);
  std::vector<std::string> pairs;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line == "```differential-pairs") {
      inside = true;
    } else if (inside && line == "```") {
      break;
    } else if (inside && !line.empty()) {
      pairs.push_back(line);
    }
  }
  return pairs;
}

TEST(DifferentialMatrixTest, MatrixIsTheCommittedPairList) {
  std::set<std::string> enumerated;
  for (const DifferentialPair& pair : DifferentialMatrix()) {
    enumerated.insert(pair.name());
  }
  const std::vector<std::string> committed = CommittedPairs();
  ASSERT_FALSE(committed.empty()) << "no pair list in " SJOIN_EXPERIMENTS_MD;
  for (const std::string& name : committed) {
    EXPECT_TRUE(enumerated.count(name)) << name << " dropped from the matrix";
  }
  const std::set<std::string> listed(committed.begin(), committed.end());
  for (const std::string& name : enumerated) {
    EXPECT_TRUE(listed.count(name)) << name << " missing from EXPERIMENTS.md";
  }
}

TEST(DifferentialMatrixTest, PairNamesAreUnique) {
  std::set<std::string> seen;
  for (const DifferentialPair& pair : DifferentialMatrix()) {
    EXPECT_TRUE(seen.insert(pair.name()).second) << pair.name();
  }
}

TEST(DifferentialMatrixTest, EveryNonDefaultPairMovesADeclaredAxis) {
  for (const DifferentialPair& pair : DifferentialMatrix()) {
    const unsigned moved = pair.config->axes();
    if (moved == 0) continue;
    EXPECT_NE(moved & pair.suite->axes, 0u) << pair.name();
  }
}

}  // namespace
}  // namespace testing
}  // namespace sjoin
