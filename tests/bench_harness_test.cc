// Determinism tests for the parallel benchmark harness: a roster run on
// 4 threads must produce bit-identical summaries to the serial run, and
// the perf_smoke binary must emit valid JSON whose per-row counted_results
// match the committed golden table.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "harness/configs.h"
#include "harness/runner.h"
#include "sjoin/common/json_writer.h"
#include "sjoin/common/thread_pool.h"

namespace sjoin::bench {
namespace {

RosterOptions SmallOptions() {
  RosterOptions options;
  options.cache = 8;
  options.len = 300;
  options.runs = 3;
  options.seed = 7;
  options.include_flow_expect = true;  // Covers the process-clone path.
  options.flow_expect_lookahead = 3;
  return options;
}

/// Exact equality on purpose: the harness promises bit-identical results
/// for every thread count, not merely statistically close ones.
void ExpectIdenticalRosters(const std::vector<AlgoResult>& serial,
                            const std::vector<AlgoResult>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].name);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].summary.mean, parallel[i].summary.mean);
    EXPECT_EQ(serial[i].summary.stddev, parallel[i].summary.stddev);
    EXPECT_EQ(serial[i].summary.min, parallel[i].summary.min);
    EXPECT_EQ(serial[i].summary.max, parallel[i].summary.max);
  }
}

TEST(BenchHarnessTest, ParallelRosterMatchesSerialOnTower) {
  JoinWorkload workload = MakeTower();
  RosterOptions options = SmallOptions();
  options.threads = 1;
  auto serial = RunJoinRoster(workload, options);
  ASSERT_FALSE(serial.empty());
  options.threads = 4;
  auto parallel = RunJoinRoster(workload, options);
  ExpectIdenticalRosters(serial, parallel);
}

TEST(BenchHarnessTest, ParallelRosterMatchesSerialOnWalk) {
  // WALK exercises RandomWalkProcess, whose lazily memoized convolution
  // powers are the reason jobs clone their processes.
  JoinWorkload workload = MakeWalk();
  RosterOptions options = SmallOptions();
  options.include_flow_expect = false;  // FlowExpect on WALK is slow.
  options.threads = 1;
  auto serial = RunJoinRoster(workload, options);
  options.threads = 4;
  auto parallel = RunJoinRoster(workload, options);
  ExpectIdenticalRosters(serial, parallel);
}

TEST(BenchHarnessTest, EnqueuedRostersOnSharedPoolMatchSerial) {
  // The sweep pattern: several rosters in flight on one pool at once.
  JoinWorkload workload = MakeTower();
  RosterOptions options = SmallOptions();
  options.include_flow_expect = false;
  std::vector<std::size_t> caches = {4, 8, 16};

  std::vector<std::vector<AlgoResult>> serial;
  for (std::size_t cache : caches) {
    options.cache = cache;
    options.threads = 1;
    serial.push_back(RunJoinRoster(workload, options));
  }

  ThreadPool pool(4);
  std::vector<PendingRoster> pending;
  for (std::size_t cache : caches) {
    options.cache = cache;
    pending.push_back(EnqueueJoinRoster(workload, options, pool));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    SCOPED_TRACE("cache=" + std::to_string(caches[i]));
    ExpectIdenticalRosters(serial[i], pending[i].Await());
  }
}

#ifdef PERF_SMOKE_BIN
/// One row's counted_results fingerprint.
struct CountRow {
  std::string name;
  std::string workload;
  std::int64_t len = 0;
  std::int64_t planner = 0;
  std::int64_t counted_results = 0;

  bool operator==(const CountRow&) const = default;
};

std::ostream& operator<<(std::ostream& os, const CountRow& row) {
  return os << row.name << " " << row.workload << " len=" << row.len
            << " planner=" << row.planner
            << " counted_results=" << row.counted_results;
}

/// The text after `"key":` (and any spaces) in one flat JSON object.
std::string FieldText(const std::string& object, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  std::size_t at = object.find(tag);
  if (at == std::string::npos) return "";
  at = object.find_first_not_of(' ', at + tag.size());
  if (object[at] == '"') {
    return object.substr(at + 1, object.find('"', at + 1) - at - 1);
  }
  return object.substr(at, object.find_first_of(",}", at) - at);
}

/// The rows of a perf_smoke result or of the golden table, in file order:
/// every object that opens with a "name" key. Rows hold no nested
/// objects, so each ends at its first '}'.
std::vector<CountRow> ReadCountRows(const std::string& text) {
  std::vector<CountRow> rows;
  for (std::size_t at = text.find("{\"name\""); at != std::string::npos;
       at = text.find("{\"name\"", at + 1)) {
    const std::string object = text.substr(at, text.find('}', at) - at + 1);
    rows.push_back({FieldText(object, "name"), FieldText(object, "workload"),
                    std::stoll(FieldText(object, "len")),
                    std::stoll(FieldText(object, "planner")),
                    std::stoll(FieldText(object, "counted_results"))});
  }
  return rows;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchHarnessTest, PerfSmokeMatchesGoldenCounts) {
  // bench/harness/perf_smoke_counts.py regenerates the golden table with
  // this same run; the warm-up (4 x cache) is a tenth of it, so every row
  // counts results.
  const std::string out = "perf_smoke_test_out.json";
  std::remove(out.c_str());
  std::string cmd = std::string("\"") + PERF_SMOKE_BIN +
                    "\" --len=2000 --runs=1 --out=" + out + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  const std::string text = ReadFile(out);
  ASSERT_FALSE(text.empty()) << "perf_smoke did not write " << out;
  EXPECT_TRUE(JsonParses(text));
  EXPECT_NE(text.find("\"schema\":\"sjoin-perf-v6\""), std::string::npos);
  EXPECT_NE(text.find("\"peak_candidates\""), std::string::npos);
  // The engine is serial and every policy has one scoring path: rows
  // carry no shard, thread or batch axis.
  EXPECT_EQ(text.find("\"shards\""), std::string::npos);
  EXPECT_EQ(text.find("\"batch\""), std::string::npos);
  EXPECT_NE(text.find("\"planner\":1"), std::string::npos);
  EXPECT_NE(text.find("\"probe_cache_hit_rate\""), std::string::npos);

  const std::vector<CountRow> rows = ReadCountRows(text);
  const std::vector<CountRow> golden =
      ReadCountRows(ReadFile(PERF_SMOKE_GOLDEN_COUNTS));
  ASSERT_FALSE(golden.empty()) << "no rows in " PERF_SMOKE_GOLDEN_COUNTS;
  EXPECT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < std::min(rows.size(), golden.size()); ++i) {
    EXPECT_EQ(rows[i], golden[i]) << "row " << i;
  }
  for (const CountRow& row : rows) {
    EXPECT_GT(row.counted_results, 0) << row << ": a zero fingerprint";
  }
  std::remove(out.c_str());
}
#endif  // PERF_SMOKE_BIN

}  // namespace
}  // namespace sjoin::bench
