#include "sjoin/testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "sjoin/common/check.h"
#include "sjoin/common/rng.h"
#include "sjoin/core/ecb.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/probe_planner.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/engine/tuple.h"
#include "sjoin/flow/min_cost_flow.h"
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
#include "sjoin/core/flow_expect_policy.h"
#include "sjoin/serve/session_scheduler.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"
#include "sjoin/testing/brute_force_flow.h"
#include "sjoin/testing/brute_force_opt.h"
#include "sjoin/testing/naive_flow_expect.h"
#include "sjoin/testing/naive_multi_heeb.h"
#include "sjoin/testing/naive_reference.h"
#include "sjoin/testing/naive_simulator.h"
#include "sjoin/testing/scenario_generator.h"

namespace sjoin {
namespace testing {
namespace {

// Salts decorrelate the draw streams that share one trial seed (the
// scenario shape, the realization, and auxiliary policy choices).
constexpr std::uint64_t kRealizationSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kAuxSalt = 0xbf58476d1ce4e5b9ULL;

bool CloseEnough(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Exact comparison of two joining runs. `compare_composition` additionally
/// requires identical r_fraction_by_time traces (elementwise bitwise —
/// both sides derive them from the same integer counts).
std::optional<std::string> ExpectEqualRuns(const std::string& context,
                                           const JoinRunResult& oracle,
                                           const JoinRunResult& optimized,
                                           bool compare_composition) {
  std::ostringstream out;
  if (oracle.total_results != optimized.total_results ||
      oracle.counted_results != optimized.counted_results) {
    out << context << ": result counts diverge (oracle "
        << oracle.total_results << "/" << oracle.counted_results
        << ", optimized " << optimized.total_results << "/"
        << optimized.counted_results << ")";
    return out.str();
  }
  if (oracle.telemetry.peak_candidates !=
          optimized.telemetry.peak_candidates ||
      oracle.telemetry.steps != optimized.telemetry.steps) {
    out << context << ": telemetry diverges (oracle peak "
        << oracle.telemetry.peak_candidates << " steps "
        << oracle.telemetry.steps << ", optimized peak "
        << optimized.telemetry.peak_candidates << " steps "
        << optimized.telemetry.steps << ")";
    return out.str();
  }
  if (compare_composition) {
    if (oracle.r_fraction_by_time.size() !=
        optimized.r_fraction_by_time.size()) {
      out << context << ": r_fraction trace lengths diverge";
      return out.str();
    }
    for (std::size_t i = 0; i < oracle.r_fraction_by_time.size(); ++i) {
      if (oracle.r_fraction_by_time[i] != optimized.r_fraction_by_time[i]) {
        out << context << ": r_fraction diverges at step " << i << " (oracle "
            << oracle.r_fraction_by_time[i] << ", optimized "
            << optimized.r_fraction_by_time[i] << ")";
        return out.str();
      }
    }
  }
  return std::nullopt;
}

/// Runs the optimized joining side of a trial, through the JoinSimulator
/// façade or, on the `direct` entry path, through a hand-built engine +
/// BinaryPolicyAdapter + observer chain; the two must be
/// indistinguishable against the oracles (the façade adds nothing but
/// plumbing).
JoinRunResult RunOptimizedJoin(const JoinSimulator::Options& options,
                               const DiffConfig& config,
                               const std::vector<Value>& r,
                               const std::vector<Value>& s,
                               ReplacementPolicy& policy) {
  if (!config.direct) return JoinSimulator(options).Run(r, s, policy);

  StreamEngine engine(StreamTopology::Binary(),
                      {.capacity = options.capacity,
                       .warmup = options.warmup,
                       .window = options.window});
  BinaryPolicyAdapter adapter(&policy);
  JoinRunResult result;
  PerfObserver perf;
  CacheCompositionObserver composition(0, &result.r_fraction_by_time);
  std::vector<StepObserver*> observers{&perf};
  if (options.track_cache_composition) observers.push_back(&composition);
  EngineRunResult run = engine.Run({&r, &s}, adapter, observers);
  result.total_results = run.total_results;
  result.counted_results = run.counted_results;
  result.telemetry = perf.telemetry();
  return result;
}

/// Runs `decider` and `other` over the same unwindowed cache trajectory
/// (chosen by `decider`) and compares every candidate score they produce,
/// within `tolerance` relative to max(1, |decider score|). This is how the
/// incremental HEEB modes are verified: their recurrences are exact only
/// up to re-anchored truncation/fp drift, so whole-run output equality is
/// not a theorem (a drift-sized near-tie can legitimately flip an
/// eviction), but scorewise agreement within the drift bound is.
std::optional<std::string> LockstepJoinScoreCompare(
    const Scenario& scenario, const std::vector<Value>& r,
    const std::vector<Value>& s, ScoredPolicy& decider, ScoredPolicy& other,
    const char* other_name, double tolerance) {
  decider.Reset();
  other.Reset();
  std::unordered_map<TupleId, double> decider_scores;
  std::unordered_map<TupleId, double> other_scores;
  decider.set_score_observer([&decider_scores](const Tuple& t, double score) {
    decider_scores[t.id] = score;
  });
  other.set_score_observer([&other_scores](const Tuple& t, double score) {
    other_scores[t.id] = score;
  });

  std::optional<std::string> failure;
  std::vector<Tuple> cache;
  StreamHistory history_r;
  StreamHistory history_s;
  for (Time t = 0; t < scenario.length && !failure.has_value(); ++t) {
    Value rv = r[static_cast<std::size_t>(t)];
    Value sv = s[static_cast<std::size_t>(t)];
    history_r.Append(rv);
    history_s.Append(sv);
    std::vector<Tuple> arrivals = {
        Tuple{TupleIdAt(StreamSide::kR, t), StreamSide::kR, rv, t},
        Tuple{TupleIdAt(StreamSide::kS, t), StreamSide::kS, sv, t}};
    PolicyContext ctx;
    ctx.now = t;
    ctx.capacity = scenario.capacity;
    ctx.cached = &cache;
    ctx.arrivals = &arrivals;
    ctx.history_r = &history_r;
    ctx.history_s = &history_s;
    decider_scores.clear();
    other_scores.clear();
    std::vector<TupleId> retained = decider.SelectRetained(ctx);
    other.SelectRetained(ctx);
    for (const auto& [id, expected] : decider_scores) {
      auto it = other_scores.find(id);
      if (it == other_scores.end()) {
        std::ostringstream out;
        out << scenario.description << ": " << other_name
            << " never scored tuple " << id << " at step " << t;
        failure = out.str();
        break;
      }
      if (std::abs(it->second - expected) >
          tolerance * std::max(1.0, std::abs(expected))) {
        std::ostringstream out;
        out << scenario.description << ": " << other_name
            << " score for tuple " << id << " at step " << t
            << " drifts beyond tolerance (direct " << expected << ", "
            << other_name << " " << it->second << ")";
        failure = out.str();
        break;
      }
    }
    std::vector<Tuple> next;
    next.reserve(retained.size());
    for (TupleId id : retained) {
      for (const Tuple& tuple : cache) {
        if (tuple.id == id) next.push_back(tuple);
      }
      for (const Tuple& tuple : arrivals) {
        if (tuple.id == id) next.push_back(tuple);
      }
    }
    cache = std::move(next);
  }
  decider.set_score_observer(nullptr);
  other.set_score_observer(nullptr);
  return failure;
}

/// Caching-side twin of LockstepJoinScoreCompare, following the
/// CacheSimulator protocol (Observe every reference, SelectRetained on
/// misses).
std::optional<std::string> LockstepCachingScoreCompare(
    const Scenario& scenario, const std::vector<Value>& references,
    ScoredCachingPolicy& decider, ScoredCachingPolicy& other,
    const char* other_name, double tolerance) {
  decider.Reset();
  other.Reset();
  std::unordered_map<Value, double> decider_scores;
  std::unordered_map<Value, double> other_scores;
  decider.set_score_observer([&decider_scores](Value v, double score) {
    decider_scores[v] = score;
  });
  other.set_score_observer([&other_scores](Value v, double score) {
    other_scores[v] = score;
  });

  std::optional<std::string> failure;
  std::vector<Value> cache;
  StreamHistory history;
  for (Time t = 0;
       t < static_cast<Time>(references.size()) && !failure.has_value();
       ++t) {
    Value v = references[static_cast<std::size_t>(t)];
    history.Append(v);
    bool hit = std::find(cache.begin(), cache.end(), v) != cache.end();
    CachingContext ctx;
    ctx.now = t;
    ctx.capacity = scenario.capacity;
    ctx.cached = &cache;
    ctx.referenced = v;
    ctx.hit = hit;
    ctx.history = &history;
    decider.Observe(ctx);
    other.Observe(ctx);
    if (hit) continue;
    decider_scores.clear();
    other_scores.clear();
    std::vector<Value> retained = decider.SelectRetained(ctx);
    other.SelectRetained(ctx);
    for (const auto& [value, expected] : decider_scores) {
      auto it = other_scores.find(value);
      if (it == other_scores.end()) {
        std::ostringstream out;
        out << scenario.description << ": " << other_name
            << " never scored value " << value << " at step " << t;
        failure = out.str();
        break;
      }
      if (std::abs(it->second - expected) >
          tolerance * std::max(1.0, std::abs(expected))) {
        std::ostringstream out;
        out << scenario.description << ": " << other_name << " score for "
            << value << " at step " << t
            << " drifts beyond tolerance (direct " << expected << ", "
            << other_name << " " << it->second << ")";
        failure = out.str();
        break;
      }
    }
    cache = std::move(retained);
  }
  decider.set_score_observer(nullptr);
  other.set_score_observer(nullptr);
  return failure;
}

// ---------------------------------------------------------------------------
// Suite 1: ecb_heeb_scoring — tabulated ECB curves and HEEB closed forms
// against from-scratch recomputation, bit for bit.

std::optional<std::string> EcbHeebScoringTrial(std::uint64_t seed,
                                               const DiffConfig&) {
  ScenarioGenerator::Options options;
  options.pool = ScenarioGenerator::Pool::kAny;
  options.min_length = 6;
  options.max_length = 20;
  options.min_capacity = 1;
  options.max_capacity = 4;
  options.max_horizon = 16;
  ScenarioGenerator generator(options);
  Scenario scenario = generator.Sample(seed);
  Rng realization_rng(seed ^ kRealizationSalt);
  auto [r, s] = SampleRealization(scenario, realization_rng);
  StreamHistory history_r(r);
  StreamHistory history_s(s);
  Time t0 = scenario.length - 1;

  Rng aux(seed ^ kAuxSalt);
  const std::vector<Value>& pool = aux.UniformReal() < 0.5 ? r : s;
  Value v = pool[aux.UniformIndex(pool.size())] + aux.UniformInt(-2, 2);

  ExpLifetime exp_lifetime(scenario.alpha);
  FixedLifetime fixed_lifetime(aux.UniformInt(1, scenario.horizon));
  InverseLifetime inverse_lifetime;
  const LifetimeFn* lifetimes[] = {&exp_lifetime, &fixed_lifetime,
                                   &inverse_lifetime};

  struct SideCase {
    const char* label;
    const StochasticProcess* process;
    const StreamHistory* history;
  };
  SideCase cases[] = {{"S", scenario.s_process.get(), &history_s},
                      {"R", scenario.r_process.get(), &history_r}};

  auto fail = [&](const char* what, const char* side, Time dt, double naive,
                  double optimized) {
    std::ostringstream out;
    out << scenario.description << ", v=" << v << ", side=" << side << ": "
        << what << " at dt=" << dt << " diverges (naive " << naive
        << ", optimized " << optimized << ")";
    return out.str();
  };

  for (const SideCase& side : cases) {
    TabulatedEcb joining =
        MakeJoiningEcb(*side.process, *side.history, t0, v, scenario.horizon);
    TabulatedEcb caching =
        MakeCachingEcb(*side.process, *side.history, t0, v, scenario.horizon);
    for (Time dt = 1; dt <= scenario.horizon; ++dt) {
      double naive =
          NaiveJoiningEcbAt(*side.process, *side.history, t0, v, dt);
      if (joining.At(dt) != naive) {
        return fail("joining ECB", side.label, dt, naive, joining.At(dt));
      }
      naive = NaiveCachingEcbAt(*side.process, *side.history, t0, v, dt);
      if (caching.At(dt) != naive) {
        return fail("caching ECB", side.label, dt, naive, caching.At(dt));
      }
    }

    // Sliding-window curve (Section 7), every point.
    Time arrival = aux.UniformInt(0, t0);
    Time window = aux.UniformInt(0, 2 * scenario.horizon);
    TabulatedEcb windowed =
        MakeWindowedEcb(joining, arrival, t0, window, scenario.horizon);
    for (Time dt = 1; dt <= scenario.horizon; ++dt) {
      double naive = NaiveWindowedEcbAt(joining, arrival, t0, window,
                                        scenario.horizon, dt);
      if (windowed.At(dt) != naive) {
        return fail("windowed ECB", side.label, dt, naive, windowed.At(dt));
      }
    }

    for (const LifetimeFn* lifetime : lifetimes) {
      double optimized = HeebFromEcb(joining, *lifetime, scenario.horizon);
      double naive = NaiveHeebFromEcb(joining, *lifetime, scenario.horizon);
      if (optimized != naive) {
        return fail("HeebFromEcb", side.label, scenario.horizon, naive,
                    optimized);
      }
    }

    double joining_heeb = JoiningHeeb(*side.process, *side.history, t0, v,
                                      exp_lifetime, scenario.horizon);
    double naive_joining = NaiveJoiningHeeb(
        *side.process, *side.history, t0, v, exp_lifetime, scenario.horizon);
    if (joining_heeb != naive_joining) {
      return fail("JoiningHeeb", side.label, scenario.horizon, naive_joining,
                  joining_heeb);
    }
    double caching_heeb = CachingHeeb(*side.process, *side.history, t0, v,
                                      exp_lifetime, scenario.horizon);
    double naive_caching = NaiveCachingHeeb(
        *side.process, *side.history, t0, v, exp_lifetime, scenario.horizon);
    if (caching_heeb != naive_caching) {
      return fail("CachingHeeb", side.label, scenario.horizon, naive_caching,
                  caching_heeb);
    }

    // Cross-form consistency (telescoping sums match only analytically, so
    // these get a tolerance instead of bit equality).
    double via_ecb = HeebFromEcb(joining, exp_lifetime, scenario.horizon);
    if (!CloseEnough(via_ecb, joining_heeb)) {
      return fail("HeebFromEcb vs JoiningHeeb", side.label, scenario.horizon,
                  joining_heeb, via_ecb);
    }
    via_ecb = HeebFromEcb(caching, exp_lifetime, scenario.horizon);
    if (!CloseEnough(via_ecb, caching_heeb)) {
      return fail("HeebFromEcb vs CachingHeeb", side.label, scenario.horizon,
                  caching_heeb, via_ecb);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 2: heeb_policy_join — full simulated runs of HeebJoinPolicy: the
// kDirect path against the naive policy on the naive simulator (bit
// identical), and each Section 4.4 incremental mode against kDirect on
// result counts.

std::optional<std::string> HeebPolicyJoinTrial(std::uint64_t seed,
                                               const DiffConfig& config) {
  ScenarioGenerator::Options options;
  options.min_length = 32;
  options.max_length = 72;
  options.min_capacity = 2;
  options.max_capacity = 6;
  options.max_horizon = 16;
  int variant = static_cast<int>(seed % 3);
  const char* incremental_name = "time-incremental";
  HeebJoinPolicy::Mode incremental_mode =
      HeebJoinPolicy::Mode::kTimeIncremental;
  switch (variant) {
    case 0:
      options.pool = ScenarioGenerator::Pool::kIndependent;
      options.window_probability = 0.35;
      break;
    case 1:
      options.pool = ScenarioGenerator::Pool::kEqualSlopeTrends;
      incremental_mode = HeebJoinPolicy::Mode::kValueIncremental;
      incremental_name = "value-incremental";
      break;
    default:
      options.pool = ScenarioGenerator::Pool::kWalks;
      options.max_length = 56;
      options.max_horizon = 12;
      incremental_mode = HeebJoinPolicy::Mode::kWalkTable;
      incremental_name = "walk-table";
      break;
  }
  ScenarioGenerator generator(options);
  Scenario scenario = generator.Sample(seed);
  Rng realization_rng(seed ^ kRealizationSalt);
  auto [r, s] = SampleRealization(scenario, realization_rng);

  JoinSimulator::Options sim_options;
  sim_options.capacity = scenario.capacity;
  sim_options.warmup = scenario.warmup;
  sim_options.window = scenario.window;
  sim_options.track_cache_composition = true;
  NaiveJoinSimulator naive_sim(sim_options);

  HeebJoinPolicy::Options direct_options;
  direct_options.mode = HeebJoinPolicy::Mode::kDirect;
  direct_options.alpha = scenario.alpha;
  direct_options.horizon = scenario.horizon;
  HeebJoinPolicy direct(scenario.r_process.get(), scenario.s_process.get(),
                        direct_options);
  NaiveHeebJoinPolicy naive(scenario.r_process.get(),
                            scenario.s_process.get(), scenario.alpha,
                            scenario.horizon);

  JoinRunResult direct_result =
      RunOptimizedJoin(sim_options, config, r, s, direct);
  JoinRunResult naive_result = naive_sim.Run(r, s, naive);
  if (auto mismatch =
          ExpectEqualRuns(scenario.description + " [direct vs naive]",
                          naive_result, direct_result, true)) {
    return mismatch;
  }

  if (!scenario.window.has_value()) {
    HeebJoinPolicy::Options incremental_options = direct_options;
    incremental_options.mode = incremental_mode;
    if (incremental_mode == HeebJoinPolicy::Mode::kWalkTable) {
      // The walk table accumulates exactly the per-offset products kDirect
      // sums (same doubles, same order), so whole runs match exactly at
      // any horizon.
      HeebJoinPolicy table(scenario.r_process.get(), scenario.s_process.get(),
                           incremental_options);
      JoinRunResult table_result =
          RunOptimizedJoin(sim_options, config, r, s, table);
      if (table_result.total_results != direct_result.total_results ||
          table_result.counted_results != direct_result.counted_results) {
        std::ostringstream out;
        out << scenario.description
            << ": walk-table HEEB diverges from kDirect (direct "
            << direct_result.total_results << "/"
            << direct_result.counted_results << ", walk-table "
            << table_result.total_results << "/"
            << table_result.counted_results << ")";
        return out.str();
      }
    } else {
      // Corollaries 3/5 lose the truncation tail on every advance, so both
      // sides run at horizon 0 (ExpHorizon, tail < 1e-9) and compare
      // scores in lockstep. A short refresh interval keeps the e^{k/alpha}
      // amplification of that tail far below the tolerance.
      incremental_options.horizon = 0;
      incremental_options.refresh_interval = 8;
      HeebJoinPolicy::Options wide_options = direct_options;
      wide_options.horizon = 0;
      HeebJoinPolicy wide_direct(scenario.r_process.get(),
                                 scenario.s_process.get(), wide_options);
      HeebJoinPolicy incremental(scenario.r_process.get(),
                                 scenario.s_process.get(),
                                 incremental_options);
      if (auto mismatch =
              LockstepJoinScoreCompare(scenario, r, s, wide_direct,
                                       incremental, incremental_name, 1e-4)) {
        return mismatch;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 3: min_cost_flow — SolveMinCostFlow on random unit-capacity
// assignment networks against exhaustive matching enumeration.

std::optional<std::string> MinCostFlowTrial(std::uint64_t seed,
                                            const DiffConfig&) {
  Rng rng(seed);
  AssignmentInstance instance = MakeRandomAssignmentInstance(rng, 6, 6);

  FlowGraph graph;
  NodeId source = 0;
  NodeId sink = 0;
  std::vector<std::vector<std::int32_t>> worker_arcs;
  BuildAssignmentGraph(instance, &graph, &source, &sink, &worker_arcs);
  MinCostFlowResult solved =
      SolveMinCostFlow(graph, source, sink, instance.target_flow);

  std::vector<double> by_size = BruteForceAssignmentCosts(instance);
  std::int64_t max_matching = static_cast<std::int64_t>(by_size.size()) - 1;
  std::int64_t want_flow = std::min(instance.target_flow, max_matching);

  auto context = [&] {
    std::ostringstream out;
    out << "assignment " << instance.num_workers << "x" << instance.num_jobs
        << " target=" << instance.target_flow
        << " max_matching=" << max_matching;
    return out.str();
  };
  if (solved.flow != want_flow) {
    std::ostringstream out;
    out << context() << ": flow diverges (brute force " << want_flow
        << ", solver " << solved.flow << ")";
    return out.str();
  }
  double want_cost = by_size[static_cast<std::size_t>(want_flow)];
  if (!CloseEnough(solved.cost, want_cost)) {
    std::ostringstream out;
    out << context() << ": cost diverges (brute force " << want_cost
        << ", solver " << solved.cost << ")";
    return out.str();
  }

  std::string inconsistency = CheckFlowConsistency(graph, source, sink);
  if (!inconsistency.empty()) {
    return context() + ": " + inconsistency;
  }

  // The same instance solved by a long-lived MinCostFlowSolver (shared
  // across every trial in the process, so its workspaces have seen graphs
  // of many shapes) must reproduce the cold free-function solve exactly:
  // flow, bitwise cost, and per-arc routing. Workspace reuse may not leak
  // state between graphs.
  {
    static MinCostFlowSolver shared_solver;
    FlowGraph reuse_graph;
    NodeId reuse_source = 0;
    NodeId reuse_sink = 0;
    std::vector<std::vector<std::int32_t>> reuse_arcs;
    BuildAssignmentGraph(instance, &reuse_graph, &reuse_source, &reuse_sink,
                         &reuse_arcs);
    MinCostFlowResult reused = shared_solver.Solve(
        reuse_graph, reuse_source, reuse_sink, instance.target_flow);
    if (reused.flow != solved.flow || reused.cost != solved.cost) {
      std::ostringstream out;
      out << context() << ": reused solver diverges from cold solve (cold "
          << solved.flow << " units / cost " << solved.cost << ", reused "
          << reused.flow << " units / cost " << reused.cost << ")";
      return out.str();
    }
    for (int w = 0; w < instance.num_workers; ++w) {
      for (int j = 0; j < instance.num_jobs; ++j) {
        std::int32_t arc = worker_arcs[static_cast<std::size_t>(w)]
                                      [static_cast<std::size_t>(j)];
        if (arc < 0) continue;
        if (graph.FlowOn(static_cast<NodeId>(2 + w), arc) !=
            reuse_graph.FlowOn(static_cast<NodeId>(2 + w), arc)) {
          std::ostringstream out;
          out << context() << ": reused solver routes worker " << w
              << " / job " << j << " differently from the cold solve";
          return out.str();
        }
      }
    }
  }

  // Decode the routed matching and re-derive flow and cost from the arcs.
  std::vector<int> worker_degree(
      static_cast<std::size_t>(instance.num_workers), 0);
  std::vector<int> job_degree(static_cast<std::size_t>(instance.num_jobs),
                              0);
  std::int64_t pairs = 0;
  double arc_cost = 0.0;
  for (int w = 0; w < instance.num_workers; ++w) {
    for (int j = 0; j < instance.num_jobs; ++j) {
      std::int32_t arc =
          worker_arcs[static_cast<std::size_t>(w)][static_cast<std::size_t>(j)];
      if (arc < 0) continue;
      std::int64_t flow = graph.FlowOn(static_cast<NodeId>(2 + w), arc);
      if (flow == 0) continue;
      if (flow != 1) {
        return context() + ": unit arc carries more than one unit";
      }
      ++worker_degree[static_cast<std::size_t>(w)];
      ++job_degree[static_cast<std::size_t>(j)];
      ++pairs;
      arc_cost += instance.cost[static_cast<std::size_t>(w)]
                               [static_cast<std::size_t>(j)];
    }
  }
  for (int degree : worker_degree) {
    if (degree > 1) return context() + ": worker matched twice";
  }
  for (int degree : job_degree) {
    if (degree > 1) return context() + ": job matched twice";
  }
  if (pairs != solved.flow || !CloseEnough(arc_cost, solved.cost)) {
    std::ostringstream out;
    out << context() << ": decoded matching (" << pairs << " pairs, cost "
        << arc_cost << ") disagrees with result (" << solved.flow
        << " units, cost " << solved.cost << ")";
    return out.str();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite: flow_expect — the optimized FlowExpectPolicy (graph templates,
// PredictInto buffers, workspace-reusing solver, optional dominance
// prefilter) against the frozen rebuild-everything oracle, in lockstep
// over one cache trajectory. Retained sets must match exactly — order and
// tie-breaks included — with the prefilter both off and on.

std::optional<std::string> FlowExpectTrial(std::uint64_t seed,
                                           const DiffConfig&) {
  ScenarioGenerator::Options options;
  options.pool = ScenarioGenerator::Pool::kAny;
  options.min_length = 12;
  options.max_length = 32;
  options.min_capacity = 1;
  options.max_capacity = 4;
  options.window_probability = 0.3;
  ScenarioGenerator generator(options);
  Scenario scenario = generator.Sample(seed);
  Rng realization_rng(seed ^ kRealizationSalt);
  auto [r, s] = SampleRealization(scenario, realization_rng);
  Rng aux(seed ^ kAuxSalt);
  Time lookahead = aux.UniformInt(2, 4);

  FlowExpectPolicy opt_off(scenario.r_process.get(), scenario.s_process.get(),
                           {.lookahead = lookahead, .dominance_prune = false});
  FlowExpectPolicy opt_on(scenario.r_process.get(), scenario.s_process.get(),
                          {.lookahead = lookahead, .dominance_prune = true});
  NaiveFlowExpectPolicy naive_off(
      scenario.r_process.get(), scenario.s_process.get(),
      {.lookahead = lookahead, .dominance_prune = false});
  NaiveFlowExpectPolicy naive_on(
      scenario.r_process.get(), scenario.s_process.get(),
      {.lookahead = lookahead, .dominance_prune = true});

  auto compare = [&](const char* variant, Time t,
                     const std::vector<TupleId>& oracle,
                     const std::vector<TupleId>& optimized)
      -> std::optional<std::string> {
    if (oracle == optimized) return std::nullopt;
    std::ostringstream out;
    out << scenario.description << " lookahead=" << lookahead << " step " << t
        << " [" << variant << "]: retained sets diverge (oracle {";
    for (TupleId id : oracle) out << " " << id;
    out << " }, optimized {";
    for (TupleId id : optimized) out << " " << id;
    out << " })";
    return out.str();
  };

  std::vector<Tuple> cache;
  StreamHistory history_r;
  StreamHistory history_s;
  for (Time t = 0; t < scenario.length; ++t) {
    Value rv = r[static_cast<std::size_t>(t)];
    Value sv = s[static_cast<std::size_t>(t)];
    history_r.Append(rv);
    history_s.Append(sv);
    std::vector<Tuple> arrivals = {
        Tuple{TupleIdAt(StreamSide::kR, t), StreamSide::kR, rv, t},
        Tuple{TupleIdAt(StreamSide::kS, t), StreamSide::kS, sv, t}};
    PolicyContext ctx;
    ctx.now = t;
    ctx.capacity = scenario.capacity;
    ctx.cached = &cache;
    ctx.arrivals = &arrivals;
    ctx.history_r = &history_r;
    ctx.history_s = &history_s;
    ctx.window = scenario.window;

    std::vector<TupleId> retained = opt_off.SelectRetained(ctx);
    if (auto mismatch =
            compare("prune off", t, naive_off.SelectRetained(ctx), retained)) {
      return mismatch;
    }
    if (auto mismatch = compare("prune on", t, naive_on.SelectRetained(ctx),
                                opt_on.SelectRetained(ctx))) {
      return mismatch;
    }

    // Advance the cache along the prune-off decider's trajectory (both
    // variants are optimal, but tie-breaks may legitimately differ between
    // them; each is compared against its own oracle on the same contexts).
    std::vector<Tuple> next;
    next.reserve(retained.size());
    for (TupleId id : retained) {
      for (const Tuple& tuple : cache) {
        if (tuple.id == id) next.push_back(tuple);
      }
      for (const Tuple& tuple : arrivals) {
        if (tuple.id == id) next.push_back(tuple);
      }
    }
    cache = std::move(next);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 4: offline_opt — OptOfflinePolicy's min-cost-flow schedule against
// exhaustive eviction search on tiny instances.

std::optional<std::string> OfflineOptTrial(std::uint64_t seed,
                                           const DiffConfig& config) {
  Rng rng(seed);
  Time length = rng.UniformInt(4, 9);
  std::size_t capacity = static_cast<std::size_t>(rng.UniformInt(1, 3));
  Value domain = rng.UniformInt(2, 4);
  std::vector<Value> r;
  std::vector<Value> s;
  for (Time t = 0; t < length; ++t) {
    r.push_back(rng.UniformInt(0, domain - 1));
    s.push_back(rng.UniformInt(0, domain - 1));
  }
  std::optional<Time> window;
  if (rng.UniformReal() < 0.4) window = rng.UniformInt(0, 4);

  std::int64_t brute =
      BruteForceOfflineOptBenefit(r, s, capacity, window);
  OptOfflinePolicy opt(r, s, capacity, window);

  auto context = [&] {
    std::ostringstream out;
    out << "len=" << length << " cap=" << capacity << " domain=" << domain;
    if (window.has_value()) out << " window=" << *window;
    return out.str();
  };
  if (opt.optimal_benefit() != brute) {
    std::ostringstream out;
    out << context() << ": optimal benefit diverges (brute force " << brute
        << ", flow " << opt.optimal_benefit() << ")";
    return out.str();
  }

  JoinSimulator::Options sim_options;
  sim_options.capacity = capacity;
  sim_options.window = window;
  JoinRunResult replayed = RunOptimizedJoin(sim_options, config, r, s, opt);
  if (replayed.total_results != brute) {
    std::ostringstream out;
    out << context() << ": replayed schedule produces "
        << replayed.total_results << " results, brute force says " << brute;
    return out.str();
  }
  JoinRunResult naive_replayed = NaiveJoinSimulator(sim_options).Run(r, s, opt);
  return ExpectEqualRuns(context() + " [replay, naive vs optimized sim]",
                         naive_replayed, replayed, false);
}

// ---------------------------------------------------------------------------
// Suite 5: join_simulator — JoinSimulator (hoisted buffers, value->count
// index) against NaiveJoinSimulator, and the two-stream MultiJoinSimulator
// against the binary engine, under assorted baseline policies.

std::optional<std::string> JoinSimulatorTrial(std::uint64_t seed,
                                              const DiffConfig& config) {
  ScenarioGenerator::Options options;
  options.pool = ScenarioGenerator::Pool::kIndependent;
  options.min_length = 48;
  options.max_length = 120;
  options.min_capacity = 1;
  options.max_capacity = 8;
  options.window_probability = 0.3;
  ScenarioGenerator generator(options);
  Scenario scenario = generator.Sample(seed);

  Rng aux(seed ^ kAuxSalt);
  if (aux.UniformReal() < 0.3) {
    // Exercise the value->count index: it only engages unwindowed at
    // capacity >= 32 (kValueIndexMinCapacity). The sampled length stays —
    // scripted processes only cover their sampled run.
    scenario.capacity = static_cast<std::size_t>(aux.UniformInt(32, 40));
    scenario.window.reset();
  }
  Rng realization_rng(seed ^ kRealizationSalt);
  auto [r, s] = SampleRealization(scenario, realization_rng);

  std::unique_ptr<ReplacementPolicy> policy;
  std::optional<Time> assumed_lifetime;
  if (aux.UniformReal() < 0.5) assumed_lifetime = aux.UniformInt(4, 24);
  switch (aux.UniformInt(0, 2)) {
    case 0:
      policy = std::make_unique<RandomPolicy>(seed ^ kAuxSalt,
                                              assumed_lifetime);
      break;
    case 1:
      policy = std::make_unique<ProbPolicy>(assumed_lifetime);
      break;
    default:
      policy = std::make_unique<LifePolicy>(aux.UniformInt(4, 24));
      break;
  }

  JoinSimulator::Options sim_options;
  sim_options.capacity = scenario.capacity;
  sim_options.warmup = scenario.warmup;
  sim_options.window = scenario.window;
  sim_options.track_cache_composition = true;
  JoinRunResult optimized =
      RunOptimizedJoin(sim_options, config, r, s, *policy);
  JoinRunResult naive = NaiveJoinSimulator(sim_options).Run(r, s, *policy);
  std::string context =
      scenario.description + " policy=" + policy->name();
  if (auto mismatch = ExpectEqualRuns(context + " [naive vs optimized sim]",
                                      naive, optimized, true)) {
    return mismatch;
  }

  // Two streams joined along the single edge (0, 1) must reduce exactly to
  // the binary simulator.
  MultiJoinSimulator::Options multi_options;
  multi_options.capacity = sim_options.capacity;
  multi_options.warmup = sim_options.warmup;
  multi_options.window = sim_options.window;
  MultiJoinSimulator multi_sim(2, {{0, 1}}, multi_options);
  BinaryAsMultiPolicy adapter(policy.get());
  MultiJoinRunResult multi = multi_sim.Run({r, s}, adapter);
  if (multi.total_results != optimized.total_results ||
      multi.counted_results != optimized.counted_results) {
    std::ostringstream out;
    out << context << ": two-stream multi join diverges from binary (binary "
        << optimized.total_results << "/" << optimized.counted_results
        << ", multi " << multi.total_results << "/" << multi.counted_results
        << ")";
    return out.str();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 6: reduction — Theorem 1 (caching hits == joining results on the
// transformed streams) under assorted caching policies, windowed and not;
// the engine-backed CacheSimulator against the pre-engine direct loop
// (NaiveCacheSimulator); plus HeebCachingPolicy kDirect against its naive
// oracle and kTimeIncremental against kDirect.

std::optional<std::string> ReductionTrial(std::uint64_t seed,
                                          const DiffConfig& config) {
  ScenarioGenerator::Options options;
  options.pool = ScenarioGenerator::Pool::kIndependent;
  options.min_length = 48;
  options.max_length = 110;
  options.min_capacity = 2;
  options.max_capacity = 6;
  options.max_horizon = 12;
  options.window_probability = 0.3;
  ScenarioGenerator generator(options);
  Scenario scenario = generator.Sample(seed);
  const StochasticProcess& reference = *scenario.r_process;
  Rng realization_rng(seed ^ kRealizationSalt);
  std::vector<Value> references =
      SampleStream(reference, scenario.length, realization_rng);

  Rng aux(seed ^ kAuxSalt);
  std::unique_ptr<CachingPolicy> policy;
  switch (aux.UniformInt(0, 2)) {
    case 0:
      policy = std::make_unique<LruCachingPolicy>();
      break;
    case 1:
      policy = std::make_unique<LfuCachingPolicy>();
      break;
    default:
      policy = std::make_unique<RandomCachingPolicy>(seed ^ kAuxSalt);
      break;
  }

  CacheSimulator::Options cache_options;
  cache_options.capacity = scenario.capacity;
  cache_options.warmup = scenario.warmup;
  cache_options.window = scenario.window;
  CacheSimulator cache_sim(cache_options);
  CacheRunResult cached = cache_sim.Run(references, *policy);
  std::string context = scenario.description + " policy=" + policy->name();

  // The engine-backed façade against the frozen pre-engine caching loop,
  // bit for bit on all four counters (the TTL-refresh window semantics
  // must agree too).
  CacheRunResult naive_cached =
      NaiveCacheSimulator(cache_options).Run(references, *policy);
  if (cached.hits != naive_cached.hits ||
      cached.misses != naive_cached.misses ||
      cached.counted_hits != naive_cached.counted_hits ||
      cached.counted_misses != naive_cached.counted_misses) {
    std::ostringstream out;
    out << context << ": CacheSimulator diverges from the naive cache loop "
        << "(naive " << naive_cached.hits << "h/" << naive_cached.misses
        << "m counted " << naive_cached.counted_hits << "/"
        << naive_cached.counted_misses << ", engine " << cached.hits << "h/"
        << cached.misses << "m counted " << cached.counted_hits << "/"
        << cached.counted_misses << ")";
    return out.str();
  }

  CachingReduction reduction(references);
  ReductionJoinPolicy reduced_policy(&reduction, policy.get());
  JoinSimulator::Options sim_options;
  sim_options.capacity = scenario.capacity;
  sim_options.warmup = scenario.warmup;
  sim_options.window = scenario.window;
  JoinRunResult joined =
      RunOptimizedJoin(sim_options, config, reduction.r_stream(),
                       reduction.s_stream(), reduced_policy);
  if (joined.total_results != cached.hits ||
      joined.counted_results != cached.counted_hits) {
    std::ostringstream out;
    out << context << ": Theorem 1 violated (caching " << cached.hits << "/"
        << cached.counted_hits << " hits, reduced join "
        << joined.total_results << "/" << joined.counted_results
        << " results)";
    return out.str();
  }
  JoinRunResult naive_joined =
      NaiveJoinSimulator(sim_options)
          .Run(reduction.r_stream(), reduction.s_stream(), reduced_policy);
  if (auto mismatch =
          ExpectEqualRuns(context + " [reduced join, naive vs optimized sim]",
                          naive_joined, joined, false)) {
    return mismatch;
  }

  // Caching HEEB: the optimized direct path must reproduce the naive oracle
  // run exactly; the Corollary 4 incremental path must reproduce kDirect's
  // hit counts.
  HeebCachingPolicy::Options direct_options;
  direct_options.mode = HeebCachingPolicy::Mode::kDirect;
  direct_options.alpha = scenario.alpha;
  direct_options.horizon = scenario.horizon;
  HeebCachingPolicy direct(&reference, direct_options);
  NaiveHeebCachingPolicy naive(&reference, scenario.alpha, scenario.horizon);
  CacheRunResult direct_run = cache_sim.Run(references, direct);
  CacheRunResult naive_run = cache_sim.Run(references, naive);
  if (direct_run.hits != naive_run.hits ||
      direct_run.misses != naive_run.misses ||
      direct_run.counted_hits != naive_run.counted_hits ||
      direct_run.counted_misses != naive_run.counted_misses) {
    std::ostringstream out;
    out << scenario.description
        << ": caching HEEB kDirect diverges from naive oracle (naive "
        << naive_run.hits << "/" << naive_run.counted_hits << ", direct "
        << direct_run.hits << "/" << direct_run.counted_hits << ")";
    return out.str();
  }
  // The Corollary 4 recurrence amplifies drift by e^{1/alpha}/(1-p) per
  // step, so kTimeIncremental is verified scorewise in lockstep against
  // kDirect — both at horizon 0 (ExpHorizon) with a short refresh
  // interval — rather than on whole-run hit counts, where a drift-sized
  // near-tie can legitimately flip an eviction.
  HeebCachingPolicy::Options wide_options = direct_options;
  wide_options.horizon = 0;
  HeebCachingPolicy wide_direct(&reference, wide_options);
  HeebCachingPolicy::Options incremental_options = wide_options;
  incremental_options.mode = HeebCachingPolicy::Mode::kTimeIncremental;
  incremental_options.refresh_interval = 4;
  HeebCachingPolicy incremental(&reference, incremental_options);
  return LockstepCachingScoreCompare(scenario, references, wide_direct,
                                     incremental, "kTimeIncremental", 1e-3);
}

// ---------------------------------------------------------------------------
// Trace comparison shared by the engine-level suites below.

/// Records the full per-step trace of an engine run for exact comparison.
class EngineTraceObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    retained_.push_back(*step.retained);
    cache_.push_back(*step.cache);
    produced_.push_back(step.produced);
    candidates_.push_back(step.num_candidates);
  }

  const std::vector<std::vector<TupleId>>& retained() const {
    return retained_;
  }
  const std::vector<std::vector<StreamTuple>>& cache() const {
    return cache_;
  }
  const std::vector<std::int64_t>& produced() const { return produced_; }
  const std::vector<std::size_t>& candidates() const { return candidates_; }

 private:
  std::vector<std::vector<TupleId>> retained_;
  std::vector<std::vector<StreamTuple>> cache_;
  std::vector<std::int64_t> produced_;
  std::vector<std::size_t> candidates_;
};

bool SameStreamTuple(const StreamTuple& a, const StreamTuple& b) {
  return a.id == b.id && a.stream == b.stream && a.value == b.value &&
         a.arrival == b.arrival;
}

std::optional<std::string> CompareEngineTraces(
    const std::string& context, const EngineTraceObserver& expected,
    const EngineTraceObserver& actual) {
  std::ostringstream out;
  if (expected.retained().size() != actual.retained().size()) {
    out << context << ": step counts diverge (expected "
        << expected.retained().size() << ", actual "
        << actual.retained().size() << ")";
    return out.str();
  }
  for (std::size_t t = 0; t < expected.retained().size(); ++t) {
    if (expected.produced()[t] != actual.produced()[t]) {
      out << context << ": produced diverges at step " << t << " (expected "
          << expected.produced()[t] << ", actual " << actual.produced()[t]
          << ")";
      return out.str();
    }
    if (expected.candidates()[t] != actual.candidates()[t]) {
      out << context << ": num_candidates diverges at step " << t
          << " (expected " << expected.candidates()[t] << ", actual "
          << actual.candidates()[t] << ")";
      return out.str();
    }
    if (expected.retained()[t] != actual.retained()[t]) {
      out << context << ": retained ids diverge at step " << t;
      return out.str();
    }
    const std::vector<StreamTuple>& sc = expected.cache()[t];
    const std::vector<StreamTuple>& hc = actual.cache()[t];
    if (sc.size() != hc.size() ||
        !std::equal(sc.begin(), sc.end(), hc.begin(), &SameStreamTuple)) {
      out << context << ": cache contents diverge at step " << t;
      return out.str();
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 8: multi_planner — the runtime probe planner (DESIGN.md §2f) on
// multi-way topologies (3-way chain, 5-way star) crossed with the four
// multi policy families {MULTI-HEEB, MULTI-PROB, MULTI-LIFE, EDGE-BUDGET}.
// Planner-on runs (re-planned probe order + empty-partner skips + the
// (partner, value) probe-result cache) must reproduce the naive
// fixed-order engine bit for bit on full per-step traces, with the
// policy's ScoreMemo both off and on; a rerun must additionally replay
// the identical planner statistics (plans are pure functions of the run
// prefix). The multi_reruns config adds façade reruns.

std::optional<std::string> MultiPlannerTrial(std::uint64_t seed,
                                             const DiffConfig& config) {
  Rng aux(seed ^ kAuxSalt);
  const bool star = seed % 2 == 1;
  const int n = star ? 5 : 3;
  const std::vector<std::pair<int, int>> edges =
      star ? std::vector<std::pair<int, int>>{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
           : std::vector<std::pair<int, int>>{{0, 1}, {1, 2}};
  const int variant = static_cast<int>((seed / 2) % 4);

  const Time len = aux.UniformInt(48, 112);
  std::size_t capacity = static_cast<std::size_t>(aux.UniformInt(2, 10));
  std::optional<Time> window;
  if (aux.UniformReal() < 0.3) window = aux.UniformInt(6, 24);
  if (!window.has_value() && aux.UniformReal() < 0.25) {
    // Engage the per-partner value->count indexes (unwindowed, capacity >=
    // StreamEngine::kValueIndexMinCapacity) so the planner's memo sits in
    // front of the indexed probe path too.
    capacity = static_cast<std::size_t>(aux.UniformInt(32, 40));
  }
  const Time warmup = aux.UniformInt(0, 10);
  const Time replan_interval = aux.UniformInt(4, 24);

  // Drifting trend processes with overlapping value ranges so every edge
  // sees real matches and real misses.
  Rng realization_rng(seed ^ kRealizationSalt);
  std::vector<std::unique_ptr<LinearTrendProcess>> owned;
  std::vector<const StochasticProcess*> processes;
  std::vector<std::vector<Value>> streams;
  std::vector<const std::vector<Value>*> stream_ptrs;
  for (int s = 0; s < n; ++s) {
    const double slope = 0.25 * aux.UniformInt(0, 4);
    const double intercept = aux.UniformInt(-3, 3);
    const int bound = aux.UniformInt(4, 10);
    owned.push_back(std::make_unique<LinearTrendProcess>(
        slope, intercept,
        DiscreteDistribution::TruncatedDiscretizedNormal(
            0.0, 2.0, -bound, bound)));
    processes.push_back(owned.back().get());
    streams.push_back(SampleRealization(*owned.back(), len, realization_rng));
  }
  for (const auto& stream : streams) stream_ptrs.push_back(&stream);

  const StreamTopology topology(n, edges);
  const MultiJoinSimulator::Options facade_options{
      .capacity = capacity, .warmup = warmup, .window = window};
  const MultiJoinSimulator facade(n, edges, facade_options);

  // The same policy family with the score memo off and on — the memoized
  // per-partner subtotals must not move a single bit of any score.
  std::unique_ptr<EnginePolicy> plain;
  std::unique_ptr<EnginePolicy> memoized;
  const double alpha = 4.0 + aux.UniformInt(0, 12);
  const Time horizon = aux.UniformInt(8, 40);
  switch (variant) {
    case 0:
      plain = std::make_unique<MultiHeebPolicy>(
          processes, &facade,
          MultiHeebPolicy::Options{.alpha = alpha, .horizon = horizon});
      memoized = std::make_unique<MultiHeebPolicy>(
          processes, &facade,
          MultiHeebPolicy::Options{
              .alpha = alpha, .horizon = horizon, .use_score_cache = true});
      break;
    case 1: {
      std::optional<Time> assumed_lifetime;
      if (aux.UniformReal() < 0.5) assumed_lifetime = aux.UniformInt(4, 24);
      plain = std::make_unique<MultiProbPolicy>(
          &facade, MultiProbPolicy::Options{.assumed_lifetime =
                                                assumed_lifetime});
      memoized = std::make_unique<MultiProbPolicy>(
          &facade, MultiProbPolicy::Options{.assumed_lifetime =
                                                assumed_lifetime,
                                            .use_score_cache = true});
      break;
    }
    case 2: {
      const Time lifetime = aux.UniformInt(4, 32);
      plain = std::make_unique<MultiLifePolicy>(
          &facade, MultiLifePolicy::Options{.lifetime = lifetime});
      memoized = std::make_unique<MultiLifePolicy>(
          &facade, MultiLifePolicy::Options{.lifetime = lifetime,
                                            .use_score_cache = true});
      break;
    }
    default: {
      const Time realloc_interval = aux.UniformInt(4, 24);
      plain = std::make_unique<EdgeBudgetPolicy>(
          processes, &topology,
          EdgeBudgetPolicy::Options{.alpha = alpha,
                                    .horizon = horizon,
                                    .realloc_interval = realloc_interval});
      memoized = std::make_unique<EdgeBudgetPolicy>(
          processes, &topology,
          EdgeBudgetPolicy::Options{.alpha = alpha,
                                    .horizon = horizon,
                                    .realloc_interval = realloc_interval,
                                    .use_score_cache = true});
      break;
    }
  }

  std::ostringstream context;
  context << (star ? "star5" : "chain3") << " policy=" << plain->name()
          << " len=" << len << " k=" << capacity
          << " window=" << (window.has_value() ? *window : -1)
          << " replan=" << replan_interval;

  const StreamEngine::Options naive_options{
      .capacity = capacity, .warmup = warmup, .window = window};
  StreamEngine naive_engine(topology, naive_options);
  EngineTraceObserver naive_trace;
  PerfObserver naive_perf;
  const EngineRunResult naive_run =
      naive_engine.Run(stream_ptrs, *plain, {&naive_perf, &naive_trace});

  ProbePlanner planner({.replan_interval = replan_interval});
  const StreamEngine::Options planned_options{.capacity = capacity,
                                              .warmup = warmup,
                                              .window = window,
                                              .probe_planner = &planner};
  StreamEngine planned_engine(topology, planned_options);

  auto check_planned = [&](EnginePolicy& policy, const std::string& label)
      -> std::optional<std::string> {
    EngineTraceObserver trace;
    PerfObserver perf;
    const EngineRunResult run =
        planned_engine.Run(stream_ptrs, policy, {&perf, &trace});
    if (run.total_results != naive_run.total_results ||
        run.counted_results != naive_run.counted_results) {
      std::ostringstream out;
      out << context.str() << " [" << label
          << "]: result counts diverge (naive " << naive_run.total_results
          << "/" << naive_run.counted_results << ", planned "
          << run.total_results << "/" << run.counted_results << ")";
      return out.str();
    }
    if (auto mismatch = CompareEngineTraces(context.str() + " [" + label +
                                                "]",
                                            naive_trace, trace)) {
      return mismatch;
    }
    const ProbePlanStats& stats = planner.stats();
    if (stats.probes !=
        stats.skipped + stats.cache_hits + stats.evaluated) {
      std::ostringstream out;
      out << context.str() << " [" << label
          << "]: planner stats do not partition (" << stats.probes << " != "
          << stats.skipped << " + " << stats.cache_hits << " + "
          << stats.evaluated << ")";
      return out.str();
    }
    if (perf.telemetry().probes != stats.probes ||
        perf.telemetry().plan_replans != stats.replans) {
      return context.str() + " [" + label +
             "]: telemetry disagrees with the planner's own accounting";
    }
    return std::nullopt;
  };

  if (auto mismatch = check_planned(*plain, "planner")) return mismatch;
  const ProbePlanStats first_stats = planner.stats();
  if (auto mismatch = check_planned(*memoized, "planner+memo")) {
    return mismatch;
  }
  // Rerun determinism: plans are pure functions of the observed prefix,
  // so the second pass must replay the first's statistics exactly.
  const ProbePlanStats rerun_stats = planner.stats();
  if (rerun_stats.probes != first_stats.probes ||
      rerun_stats.skipped != first_stats.skipped ||
      rerun_stats.cache_hits != first_stats.cache_hits ||
      rerun_stats.evaluated != first_stats.evaluated ||
      rerun_stats.replans != first_stats.replans ||
      rerun_stats.checkpoints != first_stats.checkpoints) {
    std::ostringstream out;
    out << context.str() << ": planner stats diverge across reruns ("
        << first_stats.probes << "/" << first_stats.skipped << "/"
        << first_stats.cache_hits << "/" << first_stats.evaluated << "/"
        << first_stats.replans << " vs " << rerun_stats.probes << "/"
        << rerun_stats.skipped << "/" << rerun_stats.cache_hits << "/"
        << rerun_stats.evaluated << "/" << rerun_stats.replans << ")";
    return out.str();
  }

  if (config.multi_reruns) {
    // Façade reruns, planner off and on: MultiJoinSimulator adds nothing
    // but plumbing over the engine.
    MultiJoinRunResult facade_naive = facade.Run(streams, *plain);
    MultiJoinSimulator::Options planned_facade_options = facade_options;
    planned_facade_options.planner = true;
    planned_facade_options.replan_interval = replan_interval;
    const MultiJoinSimulator planned_facade(n, edges,
                                            planned_facade_options);
    MultiJoinRunResult facade_planned = planned_facade.Run(streams, *plain);
    if (facade_naive.counted_results != naive_run.counted_results ||
        facade_planned.counted_results != naive_run.counted_results ||
        facade_naive.total_results != naive_run.total_results ||
        facade_planned.total_results != naive_run.total_results) {
      return context.str() + ": facade reruns diverge from the engine";
    }
    if (facade_planned.telemetry.probes <= 0) {
      return context.str() +
             ": planned facade rerun reported no considered probes";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 9: multi_heeb — MultiHeebPolicy (prediction ring, batched
// support-bounded kernel, RankTopK selection) against the definitional
// NaiveMultiHeebPolicy on 5-way star, 3-way chain and triangle topologies,
// with and without sliding windows (small windows give cached tuples
// max Δt <= 0), over a mix of history-independent processes (trend,
// seasonal, stationary, scripted with empty tail predictions, regime
// switching, and sometimes a steep trend whose values spread wide) and
// history-dependent ones (random walk, AR(1)). Every score
// must match bit for bit in observer order, and so must the full per-step
// trace; a rerun (Run resets the policy) must replay both.

std::optional<std::string> MultiHeebOracleTrial(std::uint64_t seed,
                                                const DiffConfig& config) {
  Rng aux(seed ^ kAuxSalt);
  const int shape = static_cast<int>(seed % 3);
  const int n = shape == 0 ? 5 : 3;
  const std::vector<std::pair<int, int>> edges =
      shape == 0   ? std::vector<std::pair<int, int>>{{0, 1},
                                                      {0, 2},
                                                      {0, 3},
                                                      {0, 4}}
      : shape == 1 ? std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}
                   : std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {0, 2}};
  const Time len = aux.UniformInt(24, 72);
  const auto capacity = static_cast<std::size_t>(aux.UniformInt(1, 12));
  std::optional<Time> window;
  const double window_draw = aux.UniformReal();
  if (window_draw < 0.35) {
    window = aux.UniformInt(0, 4);
  } else if (window_draw < 0.65) {
    window = aux.UniformInt(5, 30);
  }
  const Time warmup = aux.UniformInt(0, 8);
  const double alpha = 2.0 + aux.UniformInt(0, 14);
  const Time horizon = aux.UniformInt(1, 30);
  const bool count_keys = aux.UniformReal() < 0.5;

  // One process per stream, drawn from the scenario generator's pools
  // (kAny: stationary / trend / seasonal / scripted / walk / AR(1);
  // kSkewed: Zipf / bursty / regime switching).
  std::vector<std::unique_ptr<StochasticProcess>> owned;
  std::vector<const StochasticProcess*> processes;
  std::vector<std::vector<Value>> streams;
  std::vector<const std::vector<Value>*> stream_ptrs;
  std::ostringstream kinds;
  Rng realization_rng(seed ^ kRealizationSalt);
  for (int s = 0; s < n; ++s) {
    ScenarioGenerator::Options gen_options;
    gen_options.pool = aux.UniformReal() < 0.2
                           ? ScenarioGenerator::Pool::kSkewed
                           : ScenarioGenerator::Pool::kAny;
    gen_options.min_length = len;
    gen_options.max_length = len;
    Scenario scenario = ScenarioGenerator(gen_options)
                            .Sample(seed * 8 + static_cast<std::uint64_t>(s));
    if (s == 0 && aux.UniformReal() < 0.15) {
      // A steep trend spreads the cached values over far more integers
      // than there are candidates, so each pmf's support selects few
      // keys or none.
      scenario.r_process = std::make_unique<LinearTrendProcess>(
          static_cast<double>(aux.UniformInt(20, 60)), 0.0,
          DiscreteDistribution::BoundedUniform(-2, 2));
      scenario.description = "steep";
    }
    kinds << (s == 0 ? "" : "/")
          << scenario.description.substr(0, scenario.description.find('/'));
    owned.push_back(std::move(scenario.r_process));
    processes.push_back(owned.back().get());
    streams.push_back(SampleStream(*owned.back(), len, realization_rng));
  }
  for (const auto& stream : streams) stream_ptrs.push_back(&stream);

  std::ostringstream context;
  context << (shape == 0 ? "star5" : shape == 1 ? "chain3" : "triangle")
          << " [" << kinds.str() << "] len=" << len << " k=" << capacity
          << " window=" << (window.has_value() ? *window : -1)
          << " alpha=" << alpha << " horizon=" << horizon;

  const MultiJoinSimulator facade(
      n, edges, {.capacity = capacity, .warmup = warmup, .window = window});
  MultiHeebPolicy optimized(processes, &facade,
                            {.alpha = alpha,
                             .horizon = horizon,
                             .use_score_cache = count_keys});
  NaiveMultiHeebPolicy naive(processes, &facade.topology(), alpha, horizon);
  using Scores = std::vector<std::pair<TupleId, double>>;
  Scores naive_scores;
  Scores scores;
  naive.set_score_observer([&](const StreamTuple& tuple, double score) {
    naive_scores.emplace_back(tuple.id, score);
  });
  optimized.set_score_observer([&](const StreamTuple& tuple, double score) {
    scores.emplace_back(tuple.id, score);
  });

  StreamEngine engine(facade.topology(), {.capacity = capacity,
                                          .warmup = warmup,
                                          .window = window});
  EngineTraceObserver naive_trace;
  const EngineRunResult naive_run =
      engine.Run(stream_ptrs, naive, {&naive_trace});

  auto check = [&](const std::string& label) -> std::optional<std::string> {
    EngineTraceObserver trace;
    scores.clear();
    const EngineRunResult run = engine.Run(stream_ptrs, optimized, {&trace});
    for (std::size_t i = 0; i < scores.size() && i < naive_scores.size();
         ++i) {
      if (scores[i] != naive_scores[i]) {
        std::ostringstream out;
        out.precision(17);
        out << context.str() << " [" << label << "]: score " << i
            << " diverges (naive id " << naive_scores[i].first << " -> "
            << naive_scores[i].second << ", optimized id " << scores[i].first
            << " -> " << scores[i].second << ")";
        return out.str();
      }
    }
    if (scores.size() != naive_scores.size()) {
      return context.str() + " [" + label + "]: score counts diverge";
    }
    if (run.total_results != naive_run.total_results ||
        run.counted_results != naive_run.counted_results) {
      return context.str() + " [" + label + "]: result counts diverge";
    }
    return CompareEngineTraces(context.str() + " [" + label + "]",
                               naive_trace, trace);
  };
  if (auto mismatch = check("first run")) return mismatch;
  const ScoreMemo::Stats first_stats = optimized.score_cache_stats();
  if (count_keys && !scores.empty() &&
      first_stats.misses <= 0) {
    return context.str() + ": key accounting reported no computed keys";
  }
  // Run resets the policy (ring, statistics); the rerun must replay the
  // first run exactly.
  if (auto mismatch = check("rerun")) return mismatch;
  const ScoreMemo::Stats rerun_stats = optimized.score_cache_stats();
  if (rerun_stats.hits != first_stats.hits ||
      rerun_stats.misses != first_stats.misses) {
    return context.str() + ": key accounting diverges across reruns";
  }

  if (config.multi_reruns) {
    // Façade rerun: MultiJoinSimulator adds nothing but plumbing.
    const MultiJoinRunResult facade_run = facade.Run(streams, optimized);
    if (facade_run.counted_results != naive_run.counted_results ||
        facade_run.total_results != naive_run.total_results) {
      return context.str() + ": facade rerun diverges from the oracle";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Suite 10: serve_scheduler — N concurrent sessions multiplexed through a
// serve::SessionScheduler (seed-rotated WRR quotas, weights and worker
// counts, randomly chunked arrival interleavings, and sometimes a tight
// queue that sheds offers at the high watermark) against a solo
// StreamEngine batch run per session on exactly the arrivals the
// scheduler accepted, bit for bit on full per-step traces. This is the
// service contract: multiplexing adds admission, backpressure and
// fairness, never a different join.

std::optional<std::string> ServeSchedulerTrial(std::uint64_t seed,
                                               const DiffConfig& config) {
  ScenarioGenerator::Options options;
  options.min_length = 24;
  options.max_length = 64;
  options.min_capacity = 2;
  options.max_capacity = 8;
  options.max_horizon = 12;
  options.window_probability = 0.3;
  const ScenarioGenerator generator(options);

  Rng aux(seed ^ kAuxSalt);
  const int num_sessions = 2 + static_cast<int>(seed % 3);

  struct PlannedSession {
    Scenario scenario;
    std::vector<Value> r, s;
    // Policies are stateful, so the served session and its solo reference
    // each need their own instance; identical deterministic construction
    // makes them twins.
    std::unique_ptr<ReplacementPolicy> served_policy;
    std::unique_ptr<ReplacementPolicy> solo_policy;
    const char* family = "";
    int weight = 1;
    // What the scheduler actually admitted into the queue: under a tight
    // watermark this is a concatenation of accepted chunk prefixes, and
    // it is the realization the solo reference replays.
    std::vector<Value> accepted_r, accepted_s;
  };
  std::vector<PlannedSession> plans;
  for (int i = 0; i < num_sessions; ++i) {
    PlannedSession plan;
    const std::uint64_t session_seed =
        seed + (static_cast<std::uint64_t>(i + 1) << 32);
    plan.scenario = generator.Sample(session_seed);
    Rng realization_rng(session_seed ^ kRealizationSalt);
    auto [r, s] = SampleRealization(plan.scenario, realization_rng);
    plan.r = std::move(r);
    plan.s = std::move(s);
    plan.weight = static_cast<int>(aux.UniformInt(1, 3));

    const int family = static_cast<int>(aux.UniformInt(0, 3));
    std::optional<Time> lifetime;
    if (aux.UniformReal() < 0.5) lifetime = aux.UniformInt(4, 24);
    const Time fixed_life = aux.UniformInt(4, 24);
    for (int copy = 0; copy < 2; ++copy) {
      std::unique_ptr<ReplacementPolicy> policy;
      switch (family) {
        case 0:
          policy = std::make_unique<ProbPolicy>(lifetime);
          plan.family = "PROB";
          break;
        case 1:
          policy = std::make_unique<LifePolicy>(fixed_life);
          plan.family = "LIFE";
          break;
        case 2:
          policy = std::make_unique<RandomPolicy>(session_seed ^ kAuxSalt,
                                                  lifetime);
          plan.family = "RAND";
          break;
        default: {
          HeebJoinPolicy::Options heeb_options;
          heeb_options.mode = HeebJoinPolicy::Mode::kDirect;
          heeb_options.alpha = plan.scenario.alpha;
          heeb_options.horizon = plan.scenario.horizon;
          heeb_options.refresh_interval = 8;
          policy = std::make_unique<HeebJoinPolicy>(
              plan.scenario.r_process.get(), plan.scenario.s_process.get(),
              heeb_options);
          plan.family = "HEEB";
          break;
        }
      }
      (copy == 0 ? plan.served_policy : plan.solo_policy) =
          std::move(policy);
    }
    plans.push_back(std::move(plan));
  }

  constexpr Time kQuotas[] = {1, 2, 5, 16, 64};
  serve::SessionScheduler::Options sched_options;
  sched_options.max_sessions = static_cast<std::size_t>(num_sessions);
  sched_options.quota_unit = kQuotas[seed % 5];
  sched_options.threads = config.serve_workers > 0
                              ? config.serve_workers
                              : 1 + static_cast<int>(seed % 4);
  const bool throttled = aux.UniformReal() < 0.35;
  if (throttled) {
    sched_options.queue_capacity = 24;
    sched_options.high_watermark = 12;
  }
  serve::SessionScheduler scheduler(StreamTopology::Binary(), sched_options);

  std::deque<BinaryPolicyAdapter> served_adapters;
  std::vector<EngineTraceObserver> served_traces(plans.size());
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    PlannedSession& plan = plans[i];
    served_adapters.emplace_back(plan.served_policy.get());
    serve::SessionConfig config;
    config.engine = {.capacity = plan.scenario.capacity,
                     .warmup = plan.scenario.warmup,
                     .window = plan.scenario.window};
    config.policy = &served_adapters.back();
    config.observers = {&served_traces[i]};
    config.weight = plan.weight;
    serve::Admission admission = scheduler.Open(config);
    if (!admission.ok()) {
      return plan.scenario.description +
             ": unexpected admission reject: " + admission.reject_reason;
    }
    ids.push_back(admission.id);
  }
  {
    // The table is full: one more Open must reject without touching any
    // live session (the config is never bound on reject, so borrowing an
    // already-bound adapter here is safe).
    serve::SessionConfig config;
    config.engine = {.capacity = 4};
    config.policy = &served_adapters.back();
    serve::Admission overflow = scheduler.Open(config);
    if (overflow.ok()) {
      return "admission past max_sessions unexpectedly accepted";
    }
  }

  // Open-loop interleaving: per iteration each live session offers a
  // random 1..17-step chunk and one WRR round runs. Shed chunks simply
  // never happened; consumed still advances, so the loop terminates.
  std::vector<std::size_t> consumed(plans.size(), 0);
  std::vector<bool> finished(plans.size(), false);
  bool any_live = true;
  while (any_live) {
    any_live = false;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (finished[i]) continue;
      PlannedSession& plan = plans[i];
      const std::size_t remaining = plan.r.size() - consumed[i];
      if (remaining == 0) {
        scheduler.Finish(ids[i]);
        finished[i] = true;
        continue;
      }
      any_live = true;
      const std::size_t take = std::min(
          remaining, static_cast<std::size_t>(aux.UniformInt(1, 17)));
      const auto begin = static_cast<std::ptrdiff_t>(consumed[i]);
      const auto end = static_cast<std::ptrdiff_t>(consumed[i] + take);
      const std::vector<Value> chunk_r(plan.r.begin() + begin,
                                       plan.r.begin() + end);
      const std::vector<Value> chunk_s(plan.s.begin() + begin,
                                       plan.s.begin() + end);
      const std::size_t accepted =
          scheduler.Offer(ids[i], {&chunk_r, &chunk_s});
      const auto accepted_end = static_cast<std::ptrdiff_t>(accepted);
      plan.accepted_r.insert(plan.accepted_r.end(), chunk_r.begin(),
                             chunk_r.begin() + accepted_end);
      plan.accepted_s.insert(plan.accepted_s.end(), chunk_s.begin(),
                             chunk_s.begin() + accepted_end);
      consumed[i] += take;
    }
    scheduler.RunRound();
  }
  scheduler.Drain();

  std::int64_t total_accepted = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    PlannedSession& plan = plans[i];
    total_accepted += static_cast<std::int64_t>(plan.accepted_r.size());

    std::ostringstream context;
    context << plan.scenario.description << " family=" << plan.family
            << " session=" << i << "/" << num_sessions
            << " quota=" << sched_options.quota_unit
            << " threads=" << sched_options.threads
            << (throttled ? " throttled" : "")
            << " steps=" << plan.accepted_r.size();

    if (!scheduler.closed(ids[i])) {
      return context.str() + ": session not closed after Drain";
    }
    StreamEngine solo_engine(StreamTopology::Binary(),
                             {.capacity = plan.scenario.capacity,
                              .warmup = plan.scenario.warmup,
                              .window = plan.scenario.window});
    BinaryPolicyAdapter solo_adapter(plan.solo_policy.get());
    EngineTraceObserver solo_trace;
    const EngineRunResult solo = solo_engine.Run(
        {&plan.accepted_r, &plan.accepted_s}, solo_adapter, {&solo_trace});

    const EngineRunResult& served = scheduler.result(ids[i]);
    if (served.total_results != solo.total_results ||
        served.counted_results != solo.counted_results) {
      std::ostringstream out;
      out << context.str() << ": result counts diverge (solo "
          << solo.total_results << "/" << solo.counted_results << ", served "
          << served.total_results << "/" << served.counted_results << ")";
      return out.str();
    }
    if (auto mismatch = CompareEngineTraces(context.str(), solo_trace,
                                            served_traces[i])) {
      return mismatch;
    }
  }

  // Accounting closes: every accepted step was executed exactly once, and
  // the latency slices cover exactly the executed steps.
  const serve::SchedulerStats& stats = scheduler.stats();
  if (stats.steps_offered != total_accepted ||
      stats.steps_executed != total_accepted) {
    std::ostringstream out;
    out << "scheduler accounting diverges from accepted arrivals (accepted "
        << total_accepted << ", offered " << stats.steps_offered
        << ", executed " << stats.steps_executed << ")";
    return out.str();
  }
  std::int64_t latency_steps = 0;
  for (const serve::SliceLatency& slice : scheduler.slice_latencies()) {
    latency_steps += slice.steps;
  }
  if (latency_steps != total_accepted) {
    std::ostringstream out;
    out << "latency slices cover " << latency_steps << " steps, expected "
        << total_accepted;
    return out.str();
  }
  if (stats.sessions_rejected != 1 ||
      stats.sessions_admitted != num_sessions ||
      stats.sessions_closed != num_sessions) {
    return "admission counters diverge from the session roster";
  }
  return std::nullopt;
}

/// Axes every suite that runs its optimized side through RunOptimizedJoin
/// reads.
constexpr unsigned kJoinAxes = kAxisEntry;

const std::vector<DifferentialSuite>& Registry() {
  static const std::vector<DifferentialSuite> suites = {
      {"ecb_heeb_scoring",
       "tabulated ECB / HEEB closed forms vs from-scratch recomputation",
       1000, 0, &EcbHeebScoringTrial},
      {"heeb_policy_join",
       "HeebJoinPolicy kDirect vs naive policy+simulator; incremental modes "
       "vs kDirect",
       1000, kJoinAxes, &HeebPolicyJoinTrial},
      {"min_cost_flow",
       "SolveMinCostFlow vs exhaustive matching enumeration; reused solver "
       "vs cold solves",
       1000, 0, &MinCostFlowTrial},
      {"flow_expect",
       "template+pruned FlowExpectPolicy vs the rebuild-everything oracle, "
       "prefilter on and off",
       1000, 0, &FlowExpectTrial},
      {"offline_opt",
       "OptOfflinePolicy flow schedule vs exhaustive eviction search", 1000,
       kJoinAxes, &OfflineOptTrial},
      {"join_simulator",
       "JoinSimulator and two-stream MultiJoinSimulator vs the naive "
       "simulator",
       1000, kJoinAxes, &JoinSimulatorTrial},
      {"reduction",
       "Theorem 1 caching<->joining reduction (windowed and not); "
       "CacheSimulator vs naive cache loop; caching HEEB vs naive oracle",
       1000, kJoinAxes, &ReductionTrial},
      {"multi_planner",
       "runtime probe planner on 3-way chain / 5-way star topologies x "
       "{MULTI-HEEB, MULTI-PROB, MULTI-LIFE, EDGE-BUDGET} vs the naive "
       "fixed-order engine, bit for bit, score memo off and on, plus rerun "
       "determinism of the planner statistics",
       1000, kAxisMultiReruns, &MultiPlannerTrial},
      {"multi_heeb",
       "MultiHeebPolicy (prediction ring, support-bounded key kernel, "
       "RankTopK) vs the definitional NaiveMultiHeebPolicy on star / chain "
       "/ triangle topologies x independent and history-dependent "
       "processes x windows: every score and the full trace bit for bit, "
       "plus rerun replay",
       1000, kAxisMultiReruns, &MultiHeebOracleTrial},
      {"serve_scheduler",
       "N sessions multiplexed through a serve::SessionScheduler (random "
       "quotas, weights, worker counts, chunked interleavings, watermark "
       "shedding) vs a solo StreamEngine run per session on the accepted "
       "arrivals, bit for bit, plus scheduler accounting invariants",
       1000, kAxisServeWorkers, &ServeSchedulerTrial},
  };
  return suites;
}

/// The config table. A row leaves every axis it does not name at the
/// `default` value; DiffConfig::axes() reads back which ones it moves.
const std::vector<DiffConfig>& Configs() {
  static const std::vector<DiffConfig> configs = {
      {.name = "default"},
      {.name = "direct", .direct = true},
      {.name = "multi_reruns", .multi_reruns = true},
      {.name = "serve_w4", .serve_workers = 4},
  };
  return configs;
}

}  // namespace

unsigned DiffConfig::axes() const {
  unsigned moved = 0;
  if (direct) moved |= kAxisEntry;
  if (multi_reruns) moved |= kAxisMultiReruns;
  if (serve_workers > 0) moved |= kAxisServeWorkers;
  return moved;
}

std::string DifferentialPair::name() const {
  return std::string(suite->name) + "/" + config->name;
}

std::vector<DifferentialPair> DifferentialMatrix() {
  std::vector<DifferentialPair> pairs;
  for (const DifferentialSuite& suite : Registry()) {
    for (const DiffConfig& config : Configs()) {
      const unsigned moved = config.axes();
      if (moved == 0 || (moved & ~suite.axes) == 0) {
        pairs.push_back({&suite, &config});
      }
    }
  }
  return pairs;
}

DifferentialReport RunDifferentialPair(const DifferentialPair& pair,
                                       std::uint64_t base_seed, int trials) {
  SJOIN_CHECK_GE(trials, 1);
  DifferentialReport report;
  report.pair = pair.name();
  for (int i = 0; i < trials; ++i) {
    std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    std::optional<std::string> failure = pair.suite->run(seed, *pair.config);
    ++report.trials_run;
    if (failure.has_value()) {
      if (report.failures == 0) {
        report.first_failing_seed = seed;
        report.first_failure = *failure;
      }
      ++report.failures;
    }
  }
  return report;
}

std::string DifferentialReport::Summary() const {
  std::ostringstream out;
  out << "pair '" << pair << "': " << trials_run << " trials, " << failures
      << " failures";
  if (failures > 0) {
    out << "\n  first failure (seed " << first_failing_seed
        << "): " << first_failure << "\n  reproduce: fuzz_differential"
        << " --suite=" << pair << " --seed=" << first_failing_seed
        << " --trials=1";
  }
  return out.str();
}

int TrialCountFromEnv(int fallback) {
  const char* env = std::getenv("SJOIN_DIFF_TRIALS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || parsed <= 0) return fallback;
  return static_cast<int>(parsed);
}

}  // namespace testing
}  // namespace sjoin
