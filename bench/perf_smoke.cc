// Perf-telemetry baseline: times JoinSimulator::Run under the policies
// that matter — HEEB in all four computation modes, FlowExpect, the
// RAND/PROB/LIFE baselines and OPT-offline — plus CacheSimulator under
// LRU/LFU/RAND and caching HEEB (CACHE-ECB) on fixed seeds,
// and emits BENCH_perf.json so the perf trajectory of future PRs has a
// measured anchor (steps/sec, ns/step, peak candidate count per
// scenario). Both simulators are StreamEngine façades, so the rows also
// anchor the engine's binary instantiation and the Theorem 1 reduction
// path.
//
// Runs serially on purpose: per-run wall times feed ns/step, and parallel
// execution would contend for the core being measured. A second block
// runs a subset of the rows at a shorter length and a larger cache
// (--sweep_len / --sweep_cache), and skewed workloads
// (ZIPF08/ZIPF12/BURSTY/REGIME) cover Zipf popularity, bursty phases and
// a moving hot set.
//
// sjoin-perf-v4 adds multi-way rows (MULTI-HEEB / MULTI-PROB /
// EDGE-BUDGET on a 3-way chain and a 5-way star) as planner-off /
// planner-on A/B pairs keyed by a `planner` flag: planner-on runs attach
// the runtime probe planner (re-planned probe order + empty-partner
// skips + the (partner, value) probe-result cache, DESIGN.md §2f) and
// the policies' ScoreMemo. Both sides of a pair are bit-identical in
// counted_results by contract — the checker enforces that — and
// planner-on rows carry plan_replans, probe_skip_rate and
// probe_cache_hit_rate.
//
// Every row's counted_results at --len=2000 --runs=1 is a committed
// fingerprint (tests/golden/perf_smoke_counts.json, checked by
// bench_harness_test; EXPERIMENTS.md has the regenerate command).
//
// Usage: perf_smoke [--len=2000] [--runs=3] [--cache=50] [--seed=1]
//                   [--flow_len=400] [--flow_prune=1]
//                   [--sweep_len=1000] [--sweep_cache=200]
//                   [--multi_len=1200] [--multi_cache=100]
//                   [--out=BENCH_perf.json]
//
// --flow_prune=0 disables the FlowExpect dominance prefilter in every
// FLOWEXPECT row, for A/B-ing the prefilter against the pure
// template+solver path (see EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/configs.h"
#include "harness/flags.h"
#include "sjoin/common/json_writer.h"
#include "sjoin/common/rng.h"
#include "sjoin/common/stopwatch.h"
#include "sjoin/core/flow_expect_policy.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/multi/multi_baseline_policies.h"
#include "sjoin/multi/multi_heeb_policy.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/policies/edge_budget_policy.h"
#include "sjoin/policies/lfu_policy.h"
#include "sjoin/policies/life_policy.h"
#include "sjoin/policies/lru_policy.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_caching_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct ScenarioResult {
  std::string name;
  std::string workload;
  Time len = 0;
  int runs = 0;
  /// 1 when the run attached the runtime probe planner + score memos
  /// (multi-way rows). Part of the row key; planner twins must agree on
  /// counted_results bit for bit.
  int planner = 0;
  std::int64_t setup_ns = 0;  // Policy construction (all runs).
  std::int64_t run_ns = 0;    // JoinSimulator::Run (all runs).
  std::int64_t counted_results = 0;
  std::int64_t peak_candidates = 0;
  // Probe-plan telemetry, summed over runs (planner rows only): considered
  // partner probes and how they were served (see engine/probe_planner.h).
  std::int64_t probes = 0;
  std::int64_t probe_skips = 0;
  std::int64_t probe_cache_hits = 0;
  std::int64_t plan_replans = 0;
};

struct Config {
  Time len = 2000;
  int runs = 3;
  std::size_t cache = 50;
  std::uint64_t seed = 1;
};

/// Times `make_policy` + JoinSimulator::Run over `runs` pre-sampled pairs.
template <typename MakePolicy>
ScenarioResult TimeScenario(const std::string& name,
                            const JoinWorkload& workload, Time len,
                            const Config& config, MakePolicy&& make_policy) {
  ScenarioResult out;
  out.name = name;
  out.workload = workload.name;
  out.len = len;
  out.runs = config.runs;

  Rng rng(config.seed);
  std::vector<StreamPair> pairs;
  pairs.reserve(static_cast<std::size_t>(config.runs));
  for (int run = 0; run < config.runs; ++run) {
    pairs.push_back(SampleStreamPair(*workload.r, *workload.s, len, rng));
  }

  JoinSimulator sim({.capacity = config.cache,
                     .warmup = static_cast<Time>(4 * config.cache)});
  for (const StreamPair& pair : pairs) {
    Stopwatch setup;
    auto policy = make_policy(pair);
    out.setup_ns += setup.ElapsedNs();

    Stopwatch run;
    JoinRunResult result = sim.Run(pair.r, pair.s, *policy);
    out.run_ns += run.ElapsedNs();
    out.counted_results += result.counted_results;
    if (result.telemetry.peak_candidates > out.peak_candidates) {
      out.peak_candidates = result.telemetry.peak_candidates;
    }
  }
  std::int64_t steps = len * config.runs;
  std::fprintf(stderr, "%-18s %-6s %d    %8.0f steps/s %10.0f ns/step\n",
               name.c_str(), workload.name.c_str(), static_cast<int>(len),
               static_cast<double>(steps) /
                   (static_cast<double>(out.run_ns) * 1e-9),
               static_cast<double>(out.run_ns) /
                   static_cast<double>(steps));
  return out;
}

/// Times `make_policy` + CacheSimulator::Run (the Theorem 1 reduction)
/// over `runs` pre-sampled reference streams (the workload's R process).
template <typename MakePolicy>
ScenarioResult TimeCacheScenario(const std::string& name,
                                 const JoinWorkload& workload, Time len,
                                 const Config& config,
                                 MakePolicy&& make_policy) {
  ScenarioResult out;
  out.name = name;
  out.workload = workload.name;
  out.len = len;
  out.runs = config.runs;

  Rng rng(config.seed);
  std::vector<std::vector<Value>> streams;
  streams.reserve(static_cast<std::size_t>(config.runs));
  for (int run = 0; run < config.runs; ++run) {
    streams.push_back(SampleStreamPair(*workload.r, *workload.s, len, rng).r);
  }

  CacheSimulator sim({.capacity = config.cache,
                      .warmup = static_cast<Time>(4 * config.cache)});
  for (const std::vector<Value>& references : streams) {
    Stopwatch setup;
    auto policy = make_policy();
    out.setup_ns += setup.ElapsedNs();

    Stopwatch run;
    CacheRunResult result = sim.Run(references, *policy);
    out.run_ns += run.ElapsedNs();
    out.counted_results += result.counted_hits;
    if (result.telemetry.peak_candidates > out.peak_candidates) {
      out.peak_candidates = result.telemetry.peak_candidates;
    }
  }
  std::int64_t steps = len * config.runs;
  std::fprintf(stderr, "%-18s %-6s %d    %8.0f steps/s %10.0f ns/step\n",
               name.c_str(), workload.name.c_str(), static_cast<int>(len),
               static_cast<double>(steps) /
                   (static_cast<double>(out.run_ns) * 1e-9),
               static_cast<double>(out.run_ns) /
                   static_cast<double>(steps));
  return out;
}

/// An N-stream join workload: drifting linear trends with staggered
/// intercepts and a shared +/-8 noise band, so every edge sees a dense
/// overlap of values — the regime where the probe-result cache and the
/// score memos have repeats to serve — while the drift keeps the pmf
/// lookups moving.
struct MultiWorkload {
  std::string name;
  int num_streams = 0;
  std::vector<std::pair<int, int>> edges;
  std::vector<std::unique_ptr<LinearTrendProcess>> processes;
  std::vector<const StochasticProcess*> process_ptrs;
};

MultiWorkload MakeMultiTrends(std::string name, int num_streams,
                              std::vector<std::pair<int, int>> edges) {
  MultiWorkload workload;
  workload.name = std::move(name);
  workload.num_streams = num_streams;
  workload.edges = std::move(edges);
  for (int s = 0; s < num_streams; ++s) {
    workload.processes.push_back(std::make_unique<LinearTrendProcess>(
        1.0, -0.5 * s,
        DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -8, 8)));
    workload.process_ptrs.push_back(workload.processes.back().get());
  }
  return workload;
}

/// Times `make_policy` + MultiJoinSimulator::Run over `runs` pre-sampled
/// realizations. `planner` attaches the runtime probe planner; the policy
/// factory receives it too so planner rows also turn on the policy's
/// score memo — one flag selects the whole runtime-optimized
/// configuration, and the planner-off twin is the naive baseline it reads
/// against. counted_results must match between the twins bit for bit
/// (check_perf_regression.py enforces this).
template <typename MakePolicy>
ScenarioResult TimeMultiScenario(const std::string& name,
                                 const MultiWorkload& workload, Time len,
                                 const Config& config, bool planner,
                                 MakePolicy&& make_policy) {
  ScenarioResult out;
  out.name = name;
  out.workload = workload.name;
  out.len = len;
  out.runs = config.runs;
  out.planner = planner ? 1 : 0;

  Rng rng(config.seed);
  std::vector<std::vector<std::vector<Value>>> realizations;
  realizations.reserve(static_cast<std::size_t>(config.runs));
  for (int run = 0; run < config.runs; ++run) {
    std::vector<std::vector<Value>> streams;
    for (const StochasticProcess* process : workload.process_ptrs) {
      streams.push_back(SampleRealization(*process, len, rng));
    }
    realizations.push_back(std::move(streams));
  }

  MultiJoinSimulator sim(workload.num_streams, workload.edges,
                         {.capacity = config.cache,
                          .warmup = static_cast<Time>(4 * config.cache),
                          .planner = planner});
  for (const auto& streams : realizations) {
    Stopwatch setup;
    auto policy = make_policy(sim, planner);
    out.setup_ns += setup.ElapsedNs();

    Stopwatch run;
    MultiJoinRunResult result = sim.Run(streams, *policy);
    out.run_ns += run.ElapsedNs();
    out.counted_results += result.counted_results;
    if (result.telemetry.peak_candidates > out.peak_candidates) {
      out.peak_candidates = result.telemetry.peak_candidates;
    }
    out.probes += result.telemetry.probes;
    out.probe_skips += result.telemetry.probe_skips;
    out.probe_cache_hits += result.telemetry.probe_cache_hits;
    out.plan_replans += result.telemetry.plan_replans;
  }
  std::int64_t steps = len * config.runs;
  std::fprintf(stderr, "%-18s %-6s p%d    %8.0f steps/s %10.0f ns/step\n",
               name.c_str(), workload.name.c_str(), out.planner,
               static_cast<double>(steps) /
                   (static_cast<double>(out.run_ns) * 1e-9),
               static_cast<double>(out.run_ns) /
                   static_cast<double>(steps));
  return out;
}

void WriteJson(const std::string& path, const Config& config,
               const std::vector<ScenarioResult>& results) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("sjoin-perf-v6");
  json.Key("len");
  json.Int(config.len);
  json.Key("runs");
  json.Int(config.runs);
  json.Key("cache");
  json.Int(static_cast<std::int64_t>(config.cache));
  json.Key("seed");
  json.Int(static_cast<std::int64_t>(config.seed));
  json.Key("results");
  json.BeginArray();
  for (const ScenarioResult& r : results) {
    double steps = static_cast<double>(r.len) * r.runs;
    json.BeginObject();
    json.Key("name");
    json.String(r.name);
    json.Key("workload");
    json.String(r.workload);
    json.Key("len");
    json.Int(r.len);
    json.Key("runs");
    json.Int(r.runs);
    json.Key("planner");
    json.Int(r.planner);
    json.Key("setup_ns");
    json.Int(r.setup_ns);
    json.Key("run_ns");
    json.Int(r.run_ns);
    json.Key("ns_per_step");
    json.Double(static_cast<double>(r.run_ns) / steps);
    json.Key("steps_per_sec");
    json.Double(steps / (static_cast<double>(r.run_ns) * 1e-9));
    json.Key("peak_candidates");
    json.Int(r.peak_candidates);
    json.Key("counted_results");
    json.Int(r.counted_results);
    if (r.planner != 0 && r.probes > 0) {
      // How Phase 1's considered probes were served: skipped (partner
      // cached nothing), answered from the probe-result cache, or
      // evaluated against the index/scan — plus the number of checkpoint
      // re-plans that actually changed a probe order.
      json.Key("probes");
      json.Int(r.probes);
      json.Key("probe_skip_rate");
      json.Double(static_cast<double>(r.probe_skips) /
                  static_cast<double>(r.probes));
      json.Key("probe_cache_hit_rate");
      json.Double(static_cast<double>(r.probe_cache_hits) /
                  static_cast<double>(r.probes));
      json.Key("plan_replans");
      json.Int(r.plan_replans);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot open %s for writing\n",
                 path.c_str());
    std::exit(1);
  }
  std::fputs(json.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config config;
  config.len = flags.GetInt("len", 2000);
  config.runs = static_cast<int>(flags.GetInt("runs", 3));
  config.cache = static_cast<std::size_t>(flags.GetInt("cache", 50));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  // FlowExpect and OPT-offline are far slower per step; a shorter length
  // keeps the smoke run fast while still producing a stable ns/step.
  Time flow_len = flags.GetInt("flow_len", 400);
  bool flow_prune = flags.GetInt("flow_prune", 1) != 0;
  // The sweep block uses its own length and (larger) cache: row keys
  // include len, so a distinct length keeps its rows from colliding with
  // the main rows.
  Time sweep_len = flags.GetInt("sweep_len", 1000);
  std::size_t sweep_cache =
      static_cast<std::size_t>(flags.GetInt("sweep_cache", 200));
  // Multi-way rows: shorter than the main serial rows (MULTI-HEEB scores
  // every candidate against every partner over the full horizon, the
  // costliest per-step profile in the roster) and distinct from sweep_len
  // so the row keys stay unambiguous. The larger cache is the regime a
  // shared multi-way cache actually runs in — k tuples serving every
  // edge at once — and it is where the per-(partner, value) memos
  // amortize: candidates grow with k while distinct values stay bounded
  // by the noise band.
  Time multi_len = flags.GetInt("multi_len", 1200);
  std::size_t multi_cache =
      static_cast<std::size_t>(flags.GetInt("multi_cache", 100));
  std::string out_path = flags.GetString("out", "BENCH_perf.json");
  flags.CheckConsumed();
  if (flow_len > config.len) flow_len = config.len;
  if (sweep_len >= config.len) {
    sweep_len = config.len > 1 ? config.len / 2 : config.len;
  }

  JoinWorkload tower = MakeTower();
  JoinWorkload walk = MakeWalk();
  std::vector<ScenarioResult> results;

  auto heeb_on = [&](const JoinWorkload& workload, HeebJoinPolicy::Mode mode,
                     double alpha) {
    return [&workload, mode, alpha](const StreamPair&) {
      HeebJoinPolicy::Options options;
      options.mode = mode;
      options.alpha = alpha;
      options.horizon = workload.heeb_horizon;
      return std::make_unique<HeebJoinPolicy>(workload.r.get(),
                                              workload.s.get(), options);
    };
  };

  results.push_back(TimeScenario(
      "HEEB-direct", tower, config.len, config,
      heeb_on(tower, HeebJoinPolicy::Mode::kDirect, tower.heeb_alpha)));
  results.push_back(TimeScenario("HEEB-time-incr", tower, config.len, config,
                                 heeb_on(tower,
                                         HeebJoinPolicy::Mode::kTimeIncremental,
                                         tower.heeb_alpha)));
  results.push_back(
      TimeScenario("HEEB-value-incr", tower, config.len, config,
                   heeb_on(tower, HeebJoinPolicy::Mode::kValueIncremental,
                           tower.heeb_alpha)));
  results.push_back(
      TimeScenario("HEEB-walk-table", walk, config.len, config,
                   heeb_on(walk, HeebJoinPolicy::Mode::kWalkTable,
                           static_cast<double>(config.cache))));
  auto flow_expect_on = [&tower, flow_prune](Time lookahead) {
    return [&tower, flow_prune, lookahead](const StreamPair&) {
      return std::make_unique<FlowExpectPolicy>(
          tower.r.get(), tower.s.get(),
          FlowExpectPolicy::Options{.lookahead = lookahead,
                                    .dominance_prune = flow_prune});
    };
  };
  results.push_back(TimeScenario("FLOWEXPECT", tower, flow_len, config,
                                 flow_expect_on(5)));
  // Lookahead sweep: per-step cost grows with the Theta((k+l) l) slice
  // graph, so these rows track how the solver scales with l.
  for (Time lookahead : {Time{4}, Time{8}, Time{16}}) {
    results.push_back(TimeScenario("FLOWEXPECT-l" + std::to_string(lookahead),
                                   tower, flow_len, config,
                                   flow_expect_on(lookahead)));
  }
  results.push_back(TimeScenario(
      "OPT-OFFLINE", tower, flow_len, config,
      [&config](const StreamPair& pair) {
        return std::make_unique<OptOfflinePolicy>(pair.r, pair.s,
                                                  config.cache);
      }));
  std::optional<Time> life;
  if (tower.life_window > 0) life = tower.life_window;
  results.push_back(TimeScenario(
      "RAND", tower, config.len, config, [&](const StreamPair&) {
        return std::make_unique<RandomPolicy>(config.seed + 17, life);
      }));
  results.push_back(TimeScenario("PROB", tower, config.len, config,
                                 [&](const StreamPair&) {
                                   return std::make_unique<ProbPolicy>(life);
                                 }));
  results.push_back(TimeScenario(
      "LIFE", tower, config.len, config, [&](const StreamPair&) {
        return std::make_unique<LifePolicy>(tower.life_window);
      }));

  // Caching rows: the same engine running the caching problem through the
  // Theorem 1 reduction.
  results.push_back(TimeCacheScenario(
      "CACHE-LRU", tower, config.len, config,
      [] { return std::make_unique<LruCachingPolicy>(); }));
  results.push_back(TimeCacheScenario(
      "CACHE-LFU", tower, config.len, config,
      [] { return std::make_unique<LfuCachingPolicy>(); }));
  results.push_back(TimeCacheScenario(
      "CACHE-RAND", tower, config.len, config, [&] {
        return std::make_unique<RandomCachingPolicy>(config.seed + 29);
      }));
  // CACHE-ECB: the model-driven caching surface (caching HEEB realizes
  // the ECB expected-benefit score, Corollary 4 family), scored by the
  // CachingHeebBatch kernel.
  auto cache_ecb_on = [&] {
    return std::make_unique<HeebCachingPolicy>(
        tower.r.get(),
        HeebCachingPolicy::Options{.mode = HeebCachingPolicy::Mode::kDirect,
                                   .alpha = tower.heeb_alpha,
                                   .horizon = tower.heeb_horizon});
  };
  results.push_back(TimeCacheScenario("CACHE-ECB", tower, config.len, config,
                                      cache_ecb_on));

  // The sweep block: a subset of the rows above at --sweep_len and
  // --sweep_cache, where every step ranks a larger cache.
  Config sweep = config;
  sweep.len = sweep_len;
  sweep.cache = sweep_cache;
  results.push_back(TimeScenario(
      "HEEB-direct", tower, sweep.len, sweep,
      heeb_on(tower, HeebJoinPolicy::Mode::kDirect, tower.heeb_alpha)));
  results.push_back(TimeScenario(
      "HEEB-time-incr", tower, sweep.len, sweep,
      heeb_on(tower, HeebJoinPolicy::Mode::kTimeIncremental,
              tower.heeb_alpha)));
  results.push_back(TimeCacheScenario(
      "CACHE-LFU", tower, sweep.len, sweep,
      [] { return std::make_unique<LfuCachingPolicy>(); }));
  results.push_back(TimeCacheScenario(
      "CACHE-RAND", tower, sweep.len, sweep,
      [&] { return std::make_unique<RandomCachingPolicy>(config.seed + 29); }));

  // Skewed workloads: Zipf popularity at two exponents, bursty phases,
  // and a regime-switching hot set.
  JoinWorkload zipf08 = MakeZipf(0.8);
  JoinWorkload zipf12 = MakeZipf(1.2);
  JoinWorkload bursty = MakeBursty();
  JoinWorkload regime = MakeRegime();
  auto prob_on = [] {
    return [](const StreamPair&) {
      return std::make_unique<ProbPolicy>(std::nullopt);
    };
  };
  for (const JoinWorkload* skewed : {&zipf08, &zipf12, &bursty, &regime}) {
    results.push_back(TimeScenario(
        "HEEB-time-incr", *skewed, config.len, config,
        heeb_on(*skewed, HeebJoinPolicy::Mode::kTimeIncremental,
                skewed->heeb_alpha)));
    results.push_back(
        TimeScenario("PROB", *skewed, config.len, config, prob_on()));
    results.push_back(TimeScenario(
        "LIFE", *skewed, config.len, config, [&](const StreamPair&) {
          return std::make_unique<LifePolicy>(skewed->life_window);
        }));
  }
  // The hottest skewed workload and the heaviest scored rows at the sweep
  // configuration.
  results.push_back(TimeScenario(
      "HEEB-time-incr", zipf12, sweep.len, sweep,
      heeb_on(zipf12, HeebJoinPolicy::Mode::kTimeIncremental,
              zipf12.heeb_alpha)));
  results.push_back(
      TimeScenario("PROB", zipf12, sweep.len, sweep, prob_on()));
  results.push_back(TimeScenario(
      "HEEB-value-incr", tower, sweep.len, sweep,
      heeb_on(tower, HeebJoinPolicy::Mode::kValueIncremental,
              tower.heeb_alpha)));
  results.push_back(TimeCacheScenario(
      "CACHE-LRU", tower, sweep.len, sweep,
      [] { return std::make_unique<LruCachingPolicy>(); }));

  // Multi-way A/B pairs: planner off (naive fixed-order probes, no score
  // memo) vs planner on (re-planned probe order + probe-result cache +
  // ScoreMemo). MULTI-HEEB is the model-driven policy the §2f machinery
  // exists for; MULTI-PROB isolates the Phase-1 planner on a cheap
  // frequency policy; EDGE-BUDGET rides the same memo through per-edge
  // budgeting. counted_results must agree within each pair bit for bit.
  MultiWorkload chain3 = MakeMultiTrends("CHAIN3", 3, {{0, 1}, {1, 2}});
  MultiWorkload star5 =
      MakeMultiTrends("STAR5", 5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Config multi_config = config;
  multi_config.cache = multi_cache;
  for (bool planner : {false, true}) {
    auto heeb_multi = [](const MultiWorkload& workload) {
      return [&workload](const MultiJoinSimulator& sim, bool with_cache) {
        return std::make_unique<MultiHeebPolicy>(
            workload.process_ptrs, &sim,
            MultiHeebPolicy::Options{.alpha = 10.0,
                                     .horizon = 100,
                                     .use_score_cache = with_cache});
      };
    };
    results.push_back(TimeMultiScenario("MULTI-HEEB", chain3, multi_len,
                                        multi_config, planner,
                                        heeb_multi(chain3)));
    results.push_back(TimeMultiScenario("MULTI-HEEB", star5, multi_len,
                                        multi_config, planner, heeb_multi(star5)));
    results.push_back(TimeMultiScenario(
        "MULTI-PROB", star5, multi_len, multi_config, planner,
        [](const MultiJoinSimulator& sim, bool with_cache) {
          return std::make_unique<MultiProbPolicy>(
              &sim,
              MultiProbPolicy::Options{.use_score_cache = with_cache});
        }));
    results.push_back(TimeMultiScenario(
        "EDGE-BUDGET", star5, multi_len, multi_config, planner,
        [&star5](const MultiJoinSimulator& sim, bool with_cache) {
          return std::make_unique<EdgeBudgetPolicy>(
              star5.process_ptrs, &sim.topology(),
              EdgeBudgetPolicy::Options{.alpha = 10.0,
                                        .horizon = 100,
                                        .use_score_cache = with_cache});
        }));
  }

  WriteJson(out_path, config, results);
  return 0;
}
