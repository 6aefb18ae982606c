#ifndef SJOIN_TESTING_DIFFERENTIAL_H_
#define SJOIN_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

/// \file
/// The differential driver: runs optimized-vs-oracle comparisons over
/// thousands of seeded random trials. Each suite is a pure function of one
/// seed and one engine configuration, returning nullopt (trial passed) or
/// a mismatch description, so any failure reproduces from the reported
/// (suite/config) pair and seed alone:
///
///   fuzz_differential --suite=<suite>/<config> --seed=<seed> --trials=1
///
/// The covered combinations are one declared matrix: a table of configs
/// (each row sets the axes below that it moves; the rest keep `default`),
/// and per suite the axes its trial reads. DifferentialMatrix() pairs
/// every suite with `default` plus each config that varies only axes the
/// suite declares. The same matrix backs the ctest cases (label
/// `differential`, one per pair, tests/differential_test.cc) and the
/// standalone fuzz_differential soak binary.

namespace sjoin {
namespace testing {

/// Trials 0..trials-1 of a pair run with seeds base_seed + index. The
/// default base makes runs reproducible across machines; soak runs pass
/// fresh bases to cover new ground.
inline constexpr std::uint64_t kDifferentialBaseSeed = 20050601;

/// The axes a config can move away from `default`, as bit flags.
enum DiffAxis : unsigned {
  /// The optimized joining side is built by hand (StreamEngine +
  /// BinaryPolicyAdapter + observers) instead of through JoinSimulator.
  kAxisEntry = 1u << 0,
  /// Multi-way suites also rerun through the MultiJoinSimulator façade.
  kAxisMultiReruns = 1u << 1,
  /// Fixed SessionScheduler worker count instead of the seed-rotated one.
  kAxisServeWorkers = 1u << 2,
};

/// One row of the config table. Every field at its default is the
/// `default` config: each suite's own engine shape.
struct DiffConfig {
  const char* name = "default";
  bool direct = false;
  bool multi_reruns = false;
  /// 0 keeps the seed-rotated worker count.
  int serve_workers = 0;

  /// The DiffAxis flags on which this row differs from `default`.
  unsigned axes() const;
};

/// One optimized-vs-oracle comparison family.
struct DifferentialSuite {
  const char* name;
  const char* description;
  /// Trial count used by the ctest cases (before the SJOIN_DIFF_TRIALS
  /// environment override).
  int default_trials;
  /// DiffAxis flags the trial reads from its config.
  unsigned axes;
  /// Runs one trial; nullopt on agreement, else a mismatch description.
  std::optional<std::string> (*run)(std::uint64_t seed,
                                    const DiffConfig& config);
};

/// One matrix entry.
struct DifferentialPair {
  const DifferentialSuite* suite;
  const DiffConfig* config;

  /// "<suite>/<config>": the ctest case and the fuzz_differential --suite.
  std::string name() const;
};

/// Every (suite x config) pair, suites in registry order.
std::vector<DifferentialPair> DifferentialMatrix();

/// Outcome of a batch of trials.
struct DifferentialReport {
  std::string pair;
  int trials_run = 0;
  int failures = 0;
  std::uint64_t first_failing_seed = 0;
  std::string first_failure;

  bool ok() const { return failures == 0; }

  /// Human-readable outcome; on failure includes the first mismatch and
  /// the exact fuzz_differential command that reproduces it.
  std::string Summary() const;
};

/// Runs `trials` consecutive seeds of `pair` starting at `base_seed`.
DifferentialReport RunDifferentialPair(const DifferentialPair& pair,
                                       std::uint64_t base_seed, int trials);

/// Trial count for ctest runs: the SJOIN_DIFF_TRIALS environment variable
/// when set to a positive integer (CI sanitizer jobs use 100), else
/// `fallback`.
int TrialCountFromEnv(int fallback);

}  // namespace testing
}  // namespace sjoin

#endif  // SJOIN_TESTING_DIFFERENTIAL_H_
