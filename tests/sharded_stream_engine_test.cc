// ShardedStreamEngine: value-domain sharding must be invisible in the
// output — bit-identical per-step traces, totals and telemetry for any
// shard count AND any worker-team size (inline, fewer/equal/more threads
// than shards, pinned or not) — for scored (shard-scorable) policies;
// policies without shard scoring fall back to the serial engine through
// the same API; the façades plumb Options::shards / threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/sharded_stream_engine.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/policies/life_policy.h"
#include "sjoin/policies/lru_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"

namespace sjoin {
namespace {

std::vector<Value> SampleValues(Time len, Value domain, Rng& rng) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    out.push_back(rng.UniformInt(0, domain - 1));
  }
  return out;
}

/// Records retained ids and cache contents per step for exact comparison.
class TraceObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    retained_.push_back(*step.retained);
    std::vector<std::int64_t> snapshot;
    snapshot.reserve(step.cache->size());
    for (const StreamTuple& tuple : *step.cache) snapshot.push_back(tuple.id);
    cache_ids_.push_back(std::move(snapshot));
    produced_.push_back(step.produced);
  }

  const std::vector<std::vector<TupleId>>& retained() const {
    return retained_;
  }
  const std::vector<std::vector<std::int64_t>>& cache_ids() const {
    return cache_ids_;
  }
  const std::vector<std::int64_t>& produced() const { return produced_; }

 private:
  std::vector<std::vector<TupleId>> retained_;
  std::vector<std::vector<std::int64_t>> cache_ids_;
  std::vector<std::int64_t> produced_;
};

void ExpectShardedMatchesSerial(const StreamEngine::Options& options,
                                const std::vector<Value>& r,
                                const std::vector<Value>& s,
                                ReplacementPolicy& policy) {
  BinaryPolicyAdapter adapter(&policy);

  StreamEngine serial(StreamTopology::Binary(), options);
  TraceObserver serial_trace;
  PerfObserver serial_perf;
  EngineRunResult serial_run =
      serial.Run({&r, &s}, adapter, {&serial_perf, &serial_trace});

  for (int shards : {1, 2, 4, 8}) {
    ShardedStreamEngine engine(StreamTopology::Binary(),
                               {.capacity = options.capacity,
                                .warmup = options.warmup,
                                .window = options.window,
                                .shards = shards});
    TraceObserver trace;
    PerfObserver perf;
    EngineRunResult run = engine.Run({&r, &s}, adapter, {&perf, &trace});

    EXPECT_EQ(serial_run.total_results, run.total_results) << shards;
    EXPECT_EQ(serial_run.counted_results, run.counted_results) << shards;
    EXPECT_EQ(serial_perf.telemetry().peak_candidates,
              perf.telemetry().peak_candidates)
        << shards;
    EXPECT_EQ(serial_perf.telemetry().steps, perf.telemetry().steps)
        << shards;
    EXPECT_EQ(serial_trace.retained(), trace.retained()) << shards;
    EXPECT_EQ(serial_trace.cache_ids(), trace.cache_ids()) << shards;
    EXPECT_EQ(serial_trace.produced(), trace.produced()) << shards;
  }
}

TEST(ShardedStreamEngineTest, ScoredPoliciesMatchSerialBitForBit) {
  Rng rng(17);
  // Capacity 40 engages the per-shard value->count indexes (unwindowed at
  // capacity >= kValueIndexMinCapacity); capacity 3 covers linear scans.
  for (std::size_t capacity : {std::size_t{3}, std::size_t{40}}) {
    for (int windowed = 0; windowed < 2; ++windowed) {
      std::vector<Value> r = SampleValues(300, 12, rng);
      std::vector<Value> s = SampleValues(300, 12, rng);
      StreamEngine::Options options{.capacity = capacity, .warmup = 20};
      if (windowed != 0) options.window = 9;

      ProbPolicy prob;
      ExpectShardedMatchesSerial(options, r, s, prob);
      LifePolicy life(7);
      ExpectShardedMatchesSerial(options, r, s, life);
    }
  }
}

TEST(ShardedStreamEngineTest, NonScorablePolicyFallsBackToSerial) {
  Rng rng(23);
  std::vector<Value> r = SampleValues(200, 8, rng);
  std::vector<Value> s = SampleValues(200, 8, rng);
  // RandomPolicy has no shard scoring: shards = 4 must silently run the
  // serial engine, reproducing the serial run exactly (Reset() restores
  // the policy's internal rng).
  RandomPolicy random(11, std::nullopt);
  ExpectShardedMatchesSerial({.capacity = 5, .warmup = 10}, r, s, random);
}

TEST(ShardedStreamEngineTest, FacadeShardsOptionIsBitIdentical) {
  Rng rng(31);
  std::vector<Value> r = SampleValues(250, 10, rng);
  std::vector<Value> s = SampleValues(250, 10, rng);

  ProbPolicy prob;
  JoinSimulator::Options serial_options{.capacity = 6, .warmup = 12};
  JoinRunResult serial = JoinSimulator(serial_options).Run(r, s, prob);
  JoinSimulator::Options sharded_options = serial_options;
  sharded_options.shards = 4;
  JoinRunResult sharded = JoinSimulator(sharded_options).Run(r, s, prob);
  EXPECT_EQ(serial.total_results, sharded.total_results);
  EXPECT_EQ(serial.counted_results, sharded.counted_results);
  EXPECT_EQ(serial.telemetry.peak_candidates,
            sharded.telemetry.peak_candidates);

  // The caching reduction (with its decided-step hit fast path) through
  // CacheSimulator::Options::shards.
  std::vector<Value> references = SampleValues(300, 20, rng);
  LruCachingPolicy lru;
  CacheRunResult cache_serial =
      CacheSimulator({.capacity = 8, .warmup = 10}).Run(references, lru);
  CacheRunResult cache_sharded =
      CacheSimulator({.capacity = 8, .warmup = 10, .shards = 4})
          .Run(references, lru);
  EXPECT_EQ(cache_serial.hits, cache_sharded.hits);
  EXPECT_EQ(cache_serial.misses, cache_sharded.misses);
  EXPECT_EQ(cache_serial.counted_hits, cache_sharded.counted_hits);
  EXPECT_EQ(cache_serial.counted_misses, cache_sharded.counted_misses);

  // MultiJoinSimulator plumbs shards too; its policies are EnginePolicy
  // implementations without shard scoring, so this exercises the serial
  // fallback end to end through the multi façade.
  std::vector<std::vector<Value>> streams{SampleValues(150, 6, rng),
                                          SampleValues(150, 6, rng),
                                          SampleValues(150, 6, rng)};
  class KeepNewest final : public EnginePolicy {
   public:
    std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
      std::vector<TupleId> ids;
      for (const StreamTuple& t : *ctx.cached) ids.push_back(t.id);
      for (const StreamTuple& t : *ctx.arrivals) ids.push_back(t.id);
      std::sort(ids.begin(), ids.end(), std::greater<TupleId>());
      if (ids.size() > ctx.capacity) ids.resize(ctx.capacity);
      return ids;
    }
    const char* name() const override { return "keep-newest"; }
  } keep_newest;
  std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  MultiJoinRunResult multi_serial =
      MultiJoinSimulator(3, edges, {.capacity = 5}).Run(streams, keep_newest);
  MultiJoinRunResult multi_sharded =
      MultiJoinSimulator(3, edges, {.capacity = 5, .shards = 4})
          .Run(streams, keep_newest);
  EXPECT_EQ(multi_serial.total_results, multi_sharded.total_results);
  EXPECT_EQ(multi_serial.counted_results, multi_sharded.counted_results);
}

TEST(ShardedStreamEngineTest, ThreadsAreBitIdenticalAtEveryTeamSize) {
  Rng rng(53);
  // Cross worker-team sizes with both cache regimes: threads == 1 is the
  // inline path, 2 folds shards onto workers, 4 is one worker per shard,
  // and 8 is bounded back to 4. All must reproduce the serial trace
  // exactly — the parallel merge cascade and the shard slices may not
  // perturb the (score, arrival, id) order.
  for (std::size_t capacity : {std::size_t{3}, std::size_t{40}}) {
    std::vector<Value> r = SampleValues(300, 12, rng);
    std::vector<Value> s = SampleValues(300, 12, rng);
    ProbPolicy prob;
    BinaryPolicyAdapter adapter(&prob);
    StreamEngine::Options options{.capacity = capacity, .warmup = 20};

    StreamEngine serial(StreamTopology::Binary(), options);
    TraceObserver serial_trace;
    PerfObserver serial_perf;
    EngineRunResult serial_run =
        serial.Run({&r, &s}, adapter, {&serial_perf, &serial_trace});

    for (int threads : {1, 2, 4, 8}) {
      ShardedStreamEngine engine(StreamTopology::Binary(),
                                 {.capacity = options.capacity,
                                  .warmup = options.warmup,
                                  .shards = 4,
                                  .threads = threads});
      TraceObserver trace;
      PerfObserver perf;
      EngineRunResult run = engine.Run({&r, &s}, adapter, {&perf, &trace});

      EXPECT_EQ(serial_run.total_results, run.total_results) << threads;
      EXPECT_EQ(serial_run.counted_results, run.counted_results) << threads;
      EXPECT_EQ(serial_perf.telemetry().peak_candidates,
                perf.telemetry().peak_candidates)
          << threads;
      EXPECT_EQ(serial_trace.retained(), trace.retained()) << threads;
      EXPECT_EQ(serial_trace.cache_ids(), trace.cache_ids()) << threads;
      EXPECT_EQ(serial_trace.produced(), trace.produced()) << threads;
    }
  }
}

/// Folds each step's retained ids, cache ids and produced count into one
/// hash per step, for runs whose full traces would be too large to keep.
class TraceHashObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
    for (TupleId id : *step.retained) mix(static_cast<std::uint64_t>(id));
    mix(~std::uint64_t{0});
    for (const StreamTuple& tuple : *step.cache) {
      mix(static_cast<std::uint64_t>(tuple.id));
    }
    mix(static_cast<std::uint64_t>(step.produced));
    hashes_.push_back(h);
    peak_cache_ = std::max(peak_cache_, step.cache->size());
  }

  const std::vector<std::uint64_t>& hashes() const { return hashes_; }
  std::size_t peak_cache() const { return peak_cache_; }

 private:
  std::vector<std::uint64_t> hashes_;
  std::size_t peak_cache_ = 0;
};

TEST(ShardedStreamEngineTest, ParallelMergeMatchesInlineMerge) {
  // A merge level fans out to the workers only when it holds at least
  // 4096 entries (kParallelMergeMinEntries), so the cache here grows past
  // that: 4200 slots over 4 shards, filled after 2100 steps. Worker teams
  // of 2 and 4 must reproduce the inline (threads = 1) trace exactly.
  constexpr std::size_t kCapacity = 4200;
  constexpr Time kLen = 2200;
  Rng rng(59);
  const std::vector<Value> r = SampleValues(kLen, 64, rng);
  const std::vector<Value> s = SampleValues(kLen, 64, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);

  std::vector<std::vector<std::uint64_t>> traces;
  std::vector<EngineRunResult> runs;
  for (int threads : {1, 2, 4}) {
    ShardedStreamEngine engine(
        StreamTopology::Binary(),
        {.capacity = kCapacity, .warmup = 20, .shards = 4,
         .threads = threads});
    TraceHashObserver trace;
    runs.push_back(engine.Run({&r, &s}, adapter, {&trace}));
    EXPECT_EQ(trace.peak_cache(), kCapacity) << threads;
    traces.push_back(trace.hashes());
  }
  ASSERT_EQ(traces[0].size(), static_cast<std::size_t>(kLen));
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(runs[0].total_results, runs[i].total_results) << i;
    EXPECT_EQ(runs[0].counted_results, runs[i].counted_results) << i;
    EXPECT_EQ(traces[0], traces[i]) << i;
  }
}

TEST(ShardedStreamEngineTest, BatchedObserverDeliveryMatchesClassic) {
  // A PerfObserver-only chain permits batched delivery (scalar views
  // buffered, flushed at batch boundaries); a TraceObserver in the chain
  // forces classic per-step delivery. Both modes must agree on totals and
  // telemetry with the serial engine.
  Rng rng(59);
  std::vector<Value> r = SampleValues(400, 10, rng);
  std::vector<Value> s = SampleValues(400, 10, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);

  StreamEngine serial(StreamTopology::Binary(), {.capacity = 6, .warmup = 15});
  PerfObserver serial_perf;
  EngineRunResult serial_run = serial.Run({&r, &s}, adapter, {&serial_perf});

  ShardedStreamEngine engine(
      StreamTopology::Binary(),
      {.capacity = 6, .warmup = 15, .shards = 4, .threads = 2});
  // Batched: PerfObserver alone opts in via AllowsBatchedSteps().
  ASSERT_TRUE(PerfObserver().AllowsBatchedSteps());
  PerfObserver batched_perf;
  EngineRunResult batched = engine.Run({&r, &s}, adapter, {&batched_perf});
  EXPECT_EQ(serial_run.total_results, batched.total_results);
  EXPECT_EQ(serial_run.counted_results, batched.counted_results);
  EXPECT_EQ(serial_perf.telemetry().steps, batched_perf.telemetry().steps);
  EXPECT_EQ(serial_perf.telemetry().peak_candidates,
            batched_perf.telemetry().peak_candidates);

  // Classic: the trace observer (needs pointer fields) disables batching
  // for the whole chain; the perf numbers must come out the same anyway.
  PerfObserver classic_perf;
  TraceObserver trace;
  ASSERT_FALSE(trace.AllowsBatchedSteps());
  EngineRunResult classic =
      engine.Run({&r, &s}, adapter, {&classic_perf, &trace});
  EXPECT_EQ(serial_run.total_results, classic.total_results);
  EXPECT_EQ(serial_perf.telemetry().steps, classic_perf.telemetry().steps);
  EXPECT_EQ(serial_perf.telemetry().peak_candidates,
            classic_perf.telemetry().peak_candidates);
}

TEST(ShardedStreamEngineTest, PinnedThreadsAreBitIdentical) {
  // Affinity is a best-effort placement hint; output must not change.
  Rng rng(61);
  std::vector<Value> r = SampleValues(200, 9, rng);
  std::vector<Value> s = SampleValues(200, 9, rng);
  ProbPolicy prob;
  JoinRunResult serial = JoinSimulator({.capacity = 6}).Run(r, s, prob);
  JoinSimulator::Options options{.capacity = 6};
  options.shards = 4;
  options.threads = 4;
  options.pin_threads = true;
  JoinRunResult pinned = JoinSimulator(options).Run(r, s, prob);
  EXPECT_EQ(serial.total_results, pinned.total_results);
  EXPECT_EQ(serial.counted_results, pinned.counted_results);
}

TEST(ShardedStreamEngineTest, FacadeIsReusableWithFewerWorkersThanShards) {
  Rng rng(43);
  std::vector<Value> r = SampleValues(200, 9, rng);
  std::vector<Value> s = SampleValues(200, 9, rng);
  ProbPolicy prob;

  JoinRunResult serial = JoinSimulator({.capacity = 6}).Run(r, s, prob);

  // 2 workers for 4 shards: results stay bit-identical and the simulator
  // stays reusable.
  JoinSimulator::Options options{.capacity = 6};
  options.shards = 4;
  options.threads = 2;
  JoinSimulator sim(options);
  for (int run = 0; run < 3; ++run) {
    JoinRunResult sharded = sim.Run(r, s, prob);
    EXPECT_EQ(serial.total_results, sharded.total_results) << run;
    EXPECT_EQ(serial.counted_results, sharded.counted_results) << run;
  }
}

TEST(ShardedStreamEngineTest, EngineIsReusableAcrossRuns) {
  Rng rng(47);
  std::vector<Value> r = SampleValues(150, 8, rng);
  std::vector<Value> s = SampleValues(150, 8, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);
  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = 6, .warmup = 8, .shards = 3});
  EngineRunResult first = engine.Run({&r, &s}, adapter);
  EngineRunResult second = engine.Run({&r, &s}, adapter);
  EXPECT_EQ(first.total_results, second.total_results);
  EXPECT_EQ(first.counted_results, second.counted_results);
}

TEST(ShardedStreamEngineTest, DefaultThreadsIsBoundedByShards) {
  EXPECT_EQ(ShardedStreamEngine::DefaultThreads(1), 1);
  EXPECT_GE(ShardedStreamEngine::DefaultThreads(8), 1);
  EXPECT_LE(ShardedStreamEngine::DefaultThreads(8), 8);
}

TEST(ShardedStreamEngineTest, WorkerTeamIsBoundedByShards) {
  // The team is sized at Open, so an engine that never runs starts no
  // threads whatever `threads` asks for.
  const ShardedStreamEngine engine(StreamTopology::Binary(),
                                   {.shards = 4, .threads = 1 << 20});
  EXPECT_EQ(engine.effective_threads(), 4);
  EXPECT_EQ(engine.workers(), nullptr);
  const ShardedStreamEngine fewer(StreamTopology::Binary(),
                                  {.shards = 4, .threads = 2});
  EXPECT_EQ(fewer.effective_threads(), 2);
}

// ---------------------------------------------------------------------------
// Skew-adaptive partitioning (Options::adaptive)

/// A Zipf-skewed value stream: value v with mass ~ (v+1)^-s over
/// [0, domain). The hot head makes the static hash partition lopsided,
/// which is what forces the rebalancer to act.
std::vector<Value> SampleZipfValues(Time len, Value domain, double s,
                                    Rng& rng) {
  std::vector<double> cdf(static_cast<std::size_t>(domain));
  double total = 0.0;
  for (Value v = 0; v < domain; ++v) {
    total += std::pow(static_cast<double>(v + 1), -s);
    cdf[static_cast<std::size_t>(v)] = total;
  }
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    double u = rng.UniformReal() * total;
    Value v = 0;
    while (cdf[static_cast<std::size_t>(v)] < u && v + 1 < domain) ++v;
    out.push_back(v);
  }
  return out;
}

TEST(ShardedStreamEngineTest, AdaptiveRunsMatchSerialBitForBit) {
  Rng rng(67);
  for (std::size_t capacity : {std::size_t{4}, std::size_t{40}}) {
    std::vector<Value> r = SampleZipfValues(400, 24, 1.2, rng);
    std::vector<Value> s = SampleZipfValues(400, 24, 1.2, rng);
    ProbPolicy prob;
    BinaryPolicyAdapter adapter(&prob);
    StreamEngine::Options options{.capacity = capacity, .warmup = 20};

    StreamEngine serial(StreamTopology::Binary(), options);
    TraceObserver serial_trace;
    EngineRunResult serial_run = serial.Run({&r, &s}, adapter, {&serial_trace});

    for (int shards : {2, 4, 8}) {
      for (int threads : {1, 4}) {
        ShardedStreamEngine engine(
            StreamTopology::Binary(),
            {.capacity = capacity,
             .warmup = options.warmup,
             .shards = shards,
             .threads = threads,
             .adaptive = {.enabled = true, .interval = 16}});
        TraceObserver trace;
        EngineRunResult run = engine.Run({&r, &s}, adapter, {&trace});

        EXPECT_EQ(serial_run.total_results, run.total_results)
            << shards << "x" << threads;
        EXPECT_EQ(serial_run.counted_results, run.counted_results)
            << shards << "x" << threads;
        EXPECT_EQ(serial_trace.retained(), trace.retained())
            << shards << "x" << threads;
        EXPECT_EQ(serial_trace.cache_ids(), trace.cache_ids())
            << shards << "x" << threads;
        EXPECT_EQ(serial_trace.produced(), trace.produced())
            << shards << "x" << threads;

        // The skewed stream must actually engage the machinery: windows
        // were evaluated, and — at shard counts where the hot head
        // clearly exceeds the 1.5x-mean trigger — at least one rebalance
        // and its migration epoch fired. (At 2 shards the hot shard's
        // share hovers near the threshold, so engagement there would be
        // an assertion about the trigger constant, not the machinery.)
        const AdaptiveShardStats& stats = engine.adaptive_stats();
        EXPECT_EQ(stats.partitions, shards);
        EXPECT_GT(stats.windows, 0) << shards << "x" << threads;
        EXPECT_EQ(stats.map_version,
                  static_cast<std::uint64_t>(stats.rebalances));
        ASSERT_NE(engine.workers(), nullptr);
        if (shards >= 4) {
          EXPECT_GT(stats.rebalances, 0) << shards << "x" << threads;
          EXPECT_GT(
              engine.workers()->epochs(ShardWorkers::EpochKind::kMigration), 0)
              << shards << "x" << threads;
        }
      }
    }
  }
}

TEST(ShardedStreamEngineTest, AdaptiveRerunsReproduceTheRebalanceHistory) {
  Rng rng(71);
  std::vector<Value> r = SampleZipfValues(350, 20, 1.3, rng);
  std::vector<Value> s = SampleZipfValues(350, 20, 1.3, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);

  ShardedStreamEngine engine(
      StreamTopology::Binary(),
      {.capacity = 6,
       .warmup = 10,
       .shards = 4,
       .threads = 2,
       .adaptive = {.enabled = true, .interval = 8}});
  EngineRunResult first = engine.Run({&r, &s}, adapter);
  ASSERT_NE(engine.adaptive_map(), nullptr);
  std::vector<AdaptivePartitionMap::RebalanceAction> history =
      engine.adaptive_map()->history();
  AdaptiveShardStats stats = engine.adaptive_stats();
  ASSERT_GT(stats.rebalances, 0);

  // Rerun on the reused engine: same trace, action-for-action identical
  // rebalance history (the map is Reset, then every decision replays).
  EngineRunResult second = engine.Run({&r, &s}, adapter);
  EXPECT_EQ(first.total_results, second.total_results);
  EXPECT_EQ(first.counted_results, second.counted_results);
  EXPECT_EQ(engine.adaptive_map()->history(), history);
  EXPECT_EQ(engine.adaptive_stats().windows, stats.windows);
  EXPECT_EQ(engine.adaptive_stats().rebalances, stats.rebalances);
  EXPECT_EQ(engine.adaptive_stats().static_ratio_sum, stats.static_ratio_sum);
  EXPECT_EQ(engine.adaptive_stats().adaptive_ratio_sum,
            stats.adaptive_ratio_sum);

  // A fresh engine with the same options reproduces it too.
  ShardedStreamEngine fresh(
      StreamTopology::Binary(),
      {.capacity = 6,
       .warmup = 10,
       .shards = 4,
       .threads = 2,
       .adaptive = {.enabled = true, .interval = 8}});
  fresh.Run({&r, &s}, adapter);
  ASSERT_NE(fresh.adaptive_map(), nullptr);
  EXPECT_EQ(fresh.adaptive_map()->history(), history);
}

TEST(ShardedStreamEngineTest, AdaptiveSerialFallbackReportsNoStats) {
  // A non-decomposable policy falls back to the serial engine even with
  // adaptive on; the run must report zeroed adaptive telemetry rather
  // than stale numbers from an earlier adaptive run.
  Rng rng(73);
  std::vector<Value> r = SampleZipfValues(200, 16, 1.2, rng);
  std::vector<Value> s = SampleZipfValues(200, 16, 1.2, rng);
  ShardedStreamEngine engine(
      StreamTopology::Binary(),
      {.capacity = 5,
       .shards = 4,
       .adaptive = {.enabled = true, .interval = 8}});

  ProbPolicy prob;
  BinaryPolicyAdapter scored(&prob);
  engine.Run({&r, &s}, scored);
  ASSERT_GT(engine.adaptive_stats().windows, 0);

  RandomPolicy random(11, std::nullopt);
  BinaryPolicyAdapter unscored(&random);
  engine.Run({&r, &s}, unscored);
  EXPECT_EQ(engine.adaptive_stats().windows, 0);
  EXPECT_EQ(engine.adaptive_stats().rebalances, 0);
  EXPECT_EQ(engine.adaptive_stats().map_version, 0u);
}

TEST(ShardedStreamEngineTest, AdaptiveFacadePlumbsOptionsAndStats) {
  Rng rng(79);
  std::vector<Value> r = SampleZipfValues(300, 20, 1.2, rng);
  std::vector<Value> s = SampleZipfValues(300, 20, 1.2, rng);
  ProbPolicy prob;

  JoinRunResult serial = JoinSimulator({.capacity = 6, .warmup = 10})
                             .Run(r, s, prob);
  JoinSimulator::Options options{.capacity = 6, .warmup = 10};
  options.shards = 4;
  options.adaptive_shards = true;
  options.adaptive_interval = 16;
  JoinRunResult adaptive = JoinSimulator(options).Run(r, s, prob);
  EXPECT_EQ(serial.total_results, adaptive.total_results);
  EXPECT_EQ(serial.counted_results, adaptive.counted_results);
  EXPECT_GT(adaptive.adaptive.windows, 0);
  EXPECT_EQ(adaptive.adaptive.partitions, 4);
  // The serial run never touched the adaptive machinery.
  EXPECT_EQ(serial.adaptive.windows, 0);

  // CacheSimulator::Options plumb the same pair.
  std::vector<Value> references = SampleZipfValues(300, 24, 1.2, rng);
  LruCachingPolicy lru;
  CacheRunResult cache_serial =
      CacheSimulator({.capacity = 8, .warmup = 10}).Run(references, lru);
  CacheRunResult cache_adaptive =
      CacheSimulator({.capacity = 8,
                      .warmup = 10,
                      .shards = 4,
                      .adaptive_shards = true,
                      .adaptive_interval = 16})
          .Run(references, lru);
  EXPECT_EQ(cache_serial.hits, cache_adaptive.hits);
  EXPECT_EQ(cache_serial.misses, cache_adaptive.misses);
  EXPECT_EQ(cache_serial.counted_hits, cache_adaptive.counted_hits);
  EXPECT_EQ(cache_serial.counted_misses, cache_adaptive.counted_misses);
}

}  // namespace
}  // namespace sjoin
