// Load sweep for the session-multiplexed join service (DESIGN.md §2g):
// N concurrent PROB sessions driven open-loop at a fixed per-tick offered
// rate through serve::SessionScheduler, across a sessions x rate x
// threads grid. Each cell reports aggregate throughput (steps/s over the
// whole serve, ns/step) and the per-step latency distribution (p50/p99 of
// each Advance slice's wall time divided by its steps, weighted by
// steps).
//
// Rows use the sjoin-perf-v6 schema: the v4 fields plus `sessions` and
// `offered_rate`, which join the row key. Only sessions=1 / threads=1
// rows feed the regression gate (check_perf_regression.py) — they
// measure the scheduler's overhead over a bare engine run, which is
// machine-comparable; multi-session and threaded rows are reported as
// info, like the threads>1 engine rows.
//
// Usage: serve_load [--sessions=1,64,512,2048] [--rates=16,64]
//                   [--threads=1,4] [--len=256] [--capacity=16]
//                   [--quota=32] [--seed=1]
//                   [--out=BENCH_serve.json] [--append=]
//
// --append=FILE splices the rows into FILE's existing "results" array
// (a BENCH_perf.json written by perf_smoke) and stamps the combined
// document sjoin-perf-v6 — the CI perf job runs perf_smoke first, then
// `serve_load --append=BENCH_perf_current.json`, so one file carries the
// whole perf surface. Without --append a standalone v6 document goes to
// --out.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "sjoin/common/check.h"
#include "sjoin/common/json_writer.h"
#include "sjoin/common/rng.h"
#include "sjoin/common/stopwatch.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/serve/session_scheduler.h"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(std::atoi(text.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  SJOIN_CHECK_MSG(!out.empty(), "empty int list flag");
  for (int v : out) SJOIN_CHECK_GE(v, 1);
  return out;
}

std::vector<Value> SampleValues(Time len, Value domain, Rng& rng) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    out.push_back(rng.UniformInt(0, domain - 1));
  }
  return out;
}

struct LoadResult {
  int sessions = 0;
  int offered_rate = 0;
  int threads = 0;
  Time len = 0;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t counted_results = 0;
  std::int64_t steps_executed = 0;
  std::int64_t steps_shed = 0;
  std::int64_t rounds = 0;
  double p50_step_ns = 0.0;
  double p99_step_ns = 0.0;
};

/// Steps-weighted percentile of per-step latency over the Advance slices.
double WeightedStepLatency(std::vector<serve::SliceLatency> slices,
                           double quantile) {
  if (slices.empty()) return 0.0;
  std::sort(slices.begin(), slices.end(),
            [](const serve::SliceLatency& a, const serve::SliceLatency& b) {
              return static_cast<double>(a.ns) * static_cast<double>(b.steps) <
                     static_cast<double>(b.ns) * static_cast<double>(a.steps);
            });
  std::int64_t total = 0;
  for (const serve::SliceLatency& slice : slices) total += slice.steps;
  const double target = quantile * static_cast<double>(total);
  std::int64_t seen = 0;
  for (const serve::SliceLatency& slice : slices) {
    seen += slice.steps;
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(slice.ns) /
             static_cast<double>(slice.steps);
    }
  }
  const serve::SliceLatency& last = slices.back();
  return static_cast<double>(last.ns) / static_cast<double>(last.steps);
}

LoadResult RunLoadCell(int sessions, int rate, int threads, Time len,
                       std::size_t capacity, Time quota,
                       std::uint64_t seed) {
  LoadResult out;
  out.sessions = sessions;
  out.offered_rate = rate;
  out.threads = threads;
  out.len = len;

  Stopwatch setup;
  Rng rng(seed);
  std::vector<std::vector<std::vector<Value>>> streams;
  streams.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    streams.push_back(
        {SampleValues(len, 12, rng), SampleValues(len, 12, rng)});
  }
  std::vector<ProbPolicy> policies(static_cast<std::size_t>(sessions));
  std::vector<BinaryPolicyAdapter> adapters;
  adapters.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    adapters.emplace_back(&policies[static_cast<std::size_t>(s)]);
  }

  serve::SessionScheduler::Options options;
  options.max_sessions = static_cast<std::size_t>(sessions);
  options.queue_capacity = static_cast<std::size_t>(4 * rate);
  options.quota_unit = quota;
  options.threads = threads;
  serve::SessionScheduler scheduler(StreamTopology::Binary(), options);

  std::vector<serve::SessionId> ids;
  ids.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    serve::SessionConfig config;
    config.engine = {.capacity = capacity,
                     .warmup = static_cast<Time>(2 * capacity)};
    config.policy = &adapters[static_cast<std::size_t>(s)];
    serve::Admission admission = scheduler.Open(config);
    SJOIN_CHECK_MSG(admission.ok(), "admission rejected in the load sweep");
    ids.push_back(admission.id);
  }
  out.setup_ns = setup.ElapsedNs();

  // Open loop: every tick offers `rate` more steps to each session that
  // still has realization left, then runs one round; what a session
  // cannot absorb (queue full) is retried next tick, so nothing is lost
  // — shedding only shows up when the watermark is configured below the
  // queue bound, which this sweep leaves alone.
  Stopwatch run;
  std::vector<Time> offered(static_cast<std::size_t>(sessions), 0);
  bool offering = true;
  while (offering) {
    offering = false;
    for (int s = 0; s < sessions; ++s) {
      const std::size_t idx = static_cast<std::size_t>(s);
      const Time take =
          std::min<Time>(rate, len - offered[idx]);
      if (take <= 0) continue;
      std::vector<std::vector<Value>> burst;
      std::vector<const std::vector<Value>*> burst_ptrs;
      for (const std::vector<Value>& stream : streams[idx]) {
        burst.emplace_back(
            stream.begin() + static_cast<std::ptrdiff_t>(offered[idx]),
            stream.begin() + static_cast<std::ptrdiff_t>(offered[idx] + take));
      }
      for (const std::vector<Value>& b : burst) burst_ptrs.push_back(&b);
      offered[idx] +=
          static_cast<Time>(scheduler.Offer(ids[idx], burst_ptrs));
      if (offered[idx] >= len) {
        scheduler.Finish(ids[idx]);
      } else {
        offering = true;
      }
    }
    scheduler.RunRound();
  }
  scheduler.Drain();
  out.run_ns = run.ElapsedNs();

  for (serve::SessionId id : ids) {
    out.counted_results += scheduler.result(id).counted_results;
  }
  const serve::SchedulerStats& stats = scheduler.stats();
  out.steps_executed = stats.steps_executed;
  out.steps_shed = stats.steps_shed;
  out.rounds = stats.rounds;
  out.p50_step_ns = WeightedStepLatency(scheduler.slice_latencies(), 0.50);
  out.p99_step_ns = WeightedStepLatency(scheduler.slice_latencies(), 0.99);

  std::fprintf(stderr,
               "SERVE-PROB n=%-5d rate=%-3d t=%d %9.0f steps/s "
               "%8.0f ns/step p50 %6.0f p99 %6.0f\n",
               sessions, rate, threads,
               static_cast<double>(out.steps_executed) /
                   (static_cast<double>(out.run_ns) * 1e-9),
               static_cast<double>(out.run_ns) /
                   static_cast<double>(out.steps_executed),
               out.p50_step_ns, out.p99_step_ns);
  return out;
}

/// One sjoin-perf-v6 results row.
void WriteRow(JsonWriter& json, const LoadResult& r) {
  const double steps = static_cast<double>(r.steps_executed);
  json.BeginObject();
  json.Key("name");
  json.String("SERVE-PROB");
  json.Key("workload");
  json.String("UNIF");
  json.Key("len");
  json.Int(r.len);
  json.Key("runs");
  json.Int(1);
  json.Key("threads");
  json.Int(r.threads);
  json.Key("planner");
  json.Int(0);
  json.Key("sessions");
  json.Int(r.sessions);
  json.Key("offered_rate");
  json.Int(r.offered_rate);
  json.Key("setup_ns");
  json.Int(r.setup_ns);
  json.Key("run_ns");
  json.Int(r.run_ns);
  json.Key("ns_per_step");
  json.Double(static_cast<double>(r.run_ns) / steps);
  json.Key("steps_per_sec");
  json.Double(steps / (static_cast<double>(r.run_ns) * 1e-9));
  json.Key("p50_step_ns");
  json.Double(r.p50_step_ns);
  json.Key("p99_step_ns");
  json.Double(r.p99_step_ns);
  json.Key("peak_candidates");
  json.Int(0);
  json.Key("counted_results");
  json.Int(r.counted_results);
  json.Key("steps_shed");
  json.Int(r.steps_shed);
  json.Key("rounds");
  json.Int(r.rounds);
  json.EndObject();
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_load: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_load: cannot open %s for writing\n",
                 path.c_str());
    std::exit(1);
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<int> sessions_list =
      ParseIntList(flags.GetString("sessions", "1,64,512,2048"));
  std::vector<int> rates = ParseIntList(flags.GetString("rates", "16,64"));
  std::vector<int> threads_list =
      ParseIntList(flags.GetString("threads", "1,4"));
  Time len = flags.GetInt("len", 256);
  std::size_t capacity =
      static_cast<std::size_t>(flags.GetInt("capacity", 16));
  Time quota = flags.GetInt("quota", 32);
  std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  std::string out_path = flags.GetString("out", "BENCH_serve.json");
  std::string append_path = flags.GetString("append", "");
  flags.CheckConsumed();

  std::vector<LoadResult> results;
  for (int sessions : sessions_list) {
    for (int rate : rates) {
      for (int threads : threads_list) {
        // One session cannot spread over workers; its threads>1 cells
        // would time the same serial execution under a different key.
        if (sessions == 1 && threads > 1) continue;
        results.push_back(RunLoadCell(sessions, rate, threads, len,
                                      capacity, quota, seed));
      }
    }
  }

  // Row fragment shared by both output modes.
  JsonWriter rows;
  rows.BeginArray();
  for (const LoadResult& r : results) WriteRow(rows, r);
  rows.EndArray();
  const std::string& rows_array = rows.str();
  // Strip the surrounding brackets to get "obj,obj,...".
  const std::string rows_inner =
      rows_array.substr(1, rows_array.size() - 2);

  if (!append_path.empty()) {
    // Splice into an existing perf_smoke document: bump the schema tag
    // and insert our rows before the final ']' — perf_smoke's writer
    // always emits "results" as the last key, so the last ']' in the
    // file closes that array.
    std::string text = ReadFile(append_path);
    bool upgraded = false;
    for (const char* old_tag : {"\"schema\":\"sjoin-perf-v4\"",
                                "\"schema\":\"sjoin-perf-v5\""}) {
      const std::size_t schema_pos = text.find(old_tag);
      if (schema_pos != std::string::npos) {
        text.replace(schema_pos, std::string(old_tag).size(),
                     "\"schema\":\"sjoin-perf-v6\"");
        upgraded = true;
        break;
      }
    }
    if (!upgraded && text.find("\"schema\":\"sjoin-perf-v6\"") ==
                         std::string::npos) {
      std::fprintf(stderr,
                   "serve_load: %s is not a sjoin-perf-v4/v5/v6 document\n",
                   append_path.c_str());
      return 1;
    }
    const std::size_t close = text.rfind(']');
    if (close == std::string::npos) {
      std::fprintf(stderr, "serve_load: no results array in %s\n",
                   append_path.c_str());
      return 1;
    }
    std::string insert = rows_inner;
    if (text[close - 1] != '[') insert = "," + insert;
    text.insert(close, insert);
    if (!JsonParses(text)) {
      std::fprintf(stderr,
                   "serve_load: splice produced invalid JSON, aborting\n");
      return 1;
    }
    WriteFile(append_path, text);
    std::fprintf(stderr, "appended %zu rows to %s\n", results.size(),
                 append_path.c_str());
    return 0;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("sjoin-perf-v6");
  json.Key("len");
  json.Int(len);
  json.Key("seed");
  json.Int(static_cast<std::int64_t>(seed));
  json.Key("results");
  json.BeginArray();
  for (const LoadResult& r : results) WriteRow(json, r);
  json.EndArray();
  json.EndObject();
  std::string text = json.str();
  text += '\n';
  SJOIN_CHECK(JsonParses(text));
  WriteFile(out_path, text);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
