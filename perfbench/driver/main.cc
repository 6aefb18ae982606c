// perfbench: runs one workload once and prints its result as the last line
// of standard output.
//
// Usage: perfbench --workload <serve-small|serve-model|batch-star5>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--out <result.json>] [--spans <spans.csv>]
//                  [--commit <git commit>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// the workload exercises (and writes the span table to --spans); run.py
// orders them as BENCHMARK.json lists them. Exit status 0 means the run
// completed; `correct` in the result says whether the output checks held.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "drivers.h"
#include "host_facts.h"
#include "sjoin/common/json_writer.h"
#include "sjoin/engine/scoring_batch.h"

namespace {

using perfbench::Metric;
using perfbench::RunReport;

void AddMetrics(sjoin::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value");
    json.Double(std::isfinite(m.value) ? m.value : 0.0);
    json.Key("unit");
    json.String(m.unit);
    json.EndObject();
  }
  json.EndObject();
}

void WriteFile(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-small|serve-model|batch-star5> --seed <n> --seconds "
               "<s> --trace <0|1> [--out FILE] [--spans FILE] "
               "[--commit SHA]\n",
               problem);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  std::string out_path;
  std::string spans_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::ParseWorkload(workload, &config.workload)) {
    Usage("unknown --workload");
  }

  // Every run measures the batched scoring kernels, whatever the
  // environment's SJOIN_BATCH_SCORING says.
  sjoin::SetScoringBatchEnabled(true);

  const double steal_start = perfbench::StealSeconds();
  const auto wall_start = std::chrono::steady_clock::now();
  RunReport report = config.workload == perfbench::Workload::kBatchStar5
                         ? perfbench::RunBatchStar5(config)
                         : perfbench::RunServe(config);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  const double steal_share =
      (perfbench::StealSeconds() - steal_start) /
      (wall_s * static_cast<double>(perfbench::CurrentHost().nproc));
  report.Note("host.steal_share", steal_share, "share");

  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : report.notes) {
    std::fprintf(stderr, "  (%s %.6g %s)\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }

  // The result file: host facts, run identity, metrics and notes.
  const perfbench::HostFacts host = perfbench::CurrentHost();
  sjoin::JsonWriter file;
  file.BeginObject();
  file.Key("host");
  file.BeginObject();
  file.Key("nproc");
  file.Int(host.nproc);
  file.Key("compiler");
  file.String(host.compiler);
  file.Key("build_type");
  file.String(host.build_type);
  file.Key("scoring_batch");
  file.Bool(host.scoring_batch);
  file.Key("commit");
  file.String(commit);
  file.EndObject();
  file.Key("workload");
  file.String(perfbench::WorkloadName(config.workload));
  file.Key("seed");
  file.Int(static_cast<std::int64_t>(config.seed));
  file.Key("seconds");
  file.Double(config.seconds);
  file.Key("trace");
  file.Int(config.trace ? 1 : 0);
  file.Key("correct");
  file.Bool(report.correct);
  file.Key("attempted");
  file.Int(report.attempted);
  file.Key("failed");
  file.Int(report.failed);
  file.Key("metrics");
  AddMetrics(file, report.metrics);
  file.Key("notes");
  AddMetrics(file, report.notes);
  file.EndObject();
  WriteFile(out_path, file.str() + "\n");
  if (config.trace) WriteFile(spans_path, report.spans_csv);

  sjoin::JsonWriter line;
  line.BeginObject();
  line.Key("correct");
  line.Bool(report.correct);
  line.Key("attempted");
  line.Int(report.attempted);
  line.Key("failed");
  line.Int(report.failed);
  line.Key("metrics");
  AddMetrics(line, report.metrics);
  line.EndObject();
  std::printf("%s\n", line.str().c_str());
  return 0;
}
