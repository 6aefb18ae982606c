// Standalone differential fuzz driver. Runs seeded optimized-vs-oracle
// trials over the (suite x config) matrix:
//
//   fuzz_differential                      # every pair, default trials
//   fuzz_differential --suite=min_cost_flow --trials=100000   # its pairs
//   fuzz_differential --suite=reduction/s4t4 --seed=20050613 --trials=1
//   fuzz_differential --list               # the pairs
//
// Exit status 0 iff every trial agreed. The reported first-failure line
// contains the exact command that replays the mismatch.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sjoin/testing/differential.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fuzz_differential [--suite=SUITE[/CONFIG]] [--seed=N] "
      "[--trials=N] [--list]\n");
}

bool ParseUint64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using sjoin::testing::DifferentialMatrix;
  using sjoin::testing::DifferentialPair;
  using sjoin::testing::DifferentialReport;
  using sjoin::testing::kDifferentialBaseSeed;
  using sjoin::testing::RunDifferentialPair;

  std::string suite_name;
  std::uint64_t base_seed = kDifferentialBaseSeed;
  std::int64_t trials = -1;  // -1: per-suite default
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--suite=", 8) == 0) {
      suite_name = arg + 8;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseUint64(arg + 7, &base_seed)) {
        PrintUsage();
        return 2;
      }
    } else if (std::strncmp(arg, "--trials=", 9) == 0) {
      std::uint64_t parsed = 0;
      if (!ParseUint64(arg + 9, &parsed) || parsed == 0) {
        PrintUsage();
        return 2;
      }
      trials = static_cast<std::int64_t>(parsed);
    } else if (std::strcmp(arg, "--list") == 0) {
      for (const DifferentialPair& pair : DifferentialMatrix()) {
        std::printf("%-32s %s (default %d trials)\n", pair.name().c_str(),
                    pair.suite->description, pair.suite->default_trials);
      }
      return 0;
    } else {
      PrintUsage();
      return 2;
    }
  }

  // --suite names one pair, or a bare suite for all of its pairs.
  std::vector<DifferentialPair> selected;
  for (const DifferentialPair& pair : DifferentialMatrix()) {
    if (suite_name.empty() || suite_name == pair.name() ||
        suite_name == pair.suite->name) {
      selected.push_back(pair);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown suite '%s'; --list shows the pairs\n",
                 suite_name.c_str());
    return 2;
  }

  bool all_ok = true;
  for (const DifferentialPair& pair : selected) {
    int count =
        trials > 0 ? static_cast<int>(trials) : pair.suite->default_trials;
    DifferentialReport report = RunDifferentialPair(pair, base_seed, count);
    std::printf("%s\n", report.Summary().c_str());
    std::fflush(stdout);
    all_ok = all_ok && report.ok();
  }
  return all_ok ? 0 : 1;
}
