#ifndef SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_
#define SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sjoin/common/shard_workers.h"
#include "sjoin/common/types.h"
#include "sjoin/engine/lane_table.h"
#include "sjoin/engine/partition_map.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/engine/stream_tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// Intra-run value-domain parallelism over the StreamEngine step loop.
///
/// Equijoins only match equal values, so hashing the value domain onto N
/// shards splits both Phase 1 and the scoring half of Phase 2 into
/// independent per-shard work: an arrival probes exactly the shard its
/// value maps to, and a score-decomposable policy (EngineShardScoring)
/// ranks each shard's cached tuples locally. A deterministic merge of the
/// per-shard sorted runs plus the (serially scored) arrivals then selects
/// the global top-k. Because the merge comparator is the policy's own
/// strict total order, the merged prefix equals the serial engine's sorted
/// prefix — retained sets, result counts, telemetry and observer views are
/// bit-identical to StreamEngine for any shard count and any thread count.
///
/// Execution model (see DESIGN.md §2d): shards are distributed round-robin
/// over a team of persistent ShardWorkers driven by an epoch ticket — one
/// atomic release per parallel section instead of per-step task
/// submission. Per-step scratch (scored runs, merge outputs) comes from
/// each worker's monotonic arena, reset every step, so the scored-step
/// hot loop performs no heap allocation; the pairwise merge cascade runs
/// its independent pairs on the same workers. Observers that declare
/// AllowsBatchedSteps() have their OnStep views buffered and delivered at
/// batch boundaries, letting the engine keep workers hot across a batch.
///
/// Policies that cannot decompose (shard_scoring() == nullptr) or runs
/// with shards <= 1 fall back to a plain StreamEngine behind the same API.

namespace sjoin {

/// StreamEngine with a sharded step loop. Same Run contract as
/// StreamEngine: cheap to Run repeatedly, not concurrently.
class ShardedStreamEngine {
 public:
  /// Skew-adaptive sharding (DESIGN.md §2e). When enabled (and the run is
  /// sharded), the static hash partition is replaced by an
  /// AdaptivePartitionMap: the engine counts candidates scored per
  /// micro-bucket and, every `interval` steps, lets the map's
  /// deterministic rebalancer move range boundaries (coalesce the coldest
  /// adjacent pair, split the hottest range) before migrating cached
  /// tuples to their new shards on a dedicated worker epoch. Join output
  /// is bit-identical to the static and serial engines for any setting
  /// here — the merge order never depends on the partitioning — so these
  /// knobs trade only load balance.
  struct AdaptiveOptions {
    bool enabled = false;
    /// Steps between rebalance checkpoints; >= 1.
    Time interval = 32;
    /// Micro-buckets in the hashed value space (rounded up to a power of
    /// two, at least 4x shards).
    int num_buckets = 256;
    /// Rebalance when max/mean per-shard load exceeds this ratio.
    double imbalance_ratio = 1.5;
  };

  struct Options {
    /// Cache capacity k.
    std::size_t capacity = 10;
    /// Results produced before this time are not counted.
    Time warmup = 0;
    /// Sliding-window length (Section 7); nullopt = regular join.
    std::optional<Time> window;
    /// Value-domain shards. <= 1 runs the serial StreamEngine.
    int shards = 1;
    /// Worker threads for the sharded path. 0 = auto
    /// (min(shards, hardware)); 1 runs every shard inline on the caller;
    /// values above `shards` are bounded to one worker per shard.
    int threads = 0;
    /// Pin spawned workers to CPUs (worker w -> CPU w mod hardware);
    /// Linux only, best effort, never affects results.
    bool pin_threads = false;
    /// Skew-adaptive partitioning; see AdaptiveOptions.
    AdaptiveOptions adaptive;
    /// Runtime probe planning for the serial path (engine/probe_planner.h;
    /// not owned, must outlive every Run). Today every multi-way policy is
    /// serial-only, so this reaches the planner's target workloads; a
    /// genuinely sharded run (score-decomposable policy, shards > 1)
    /// ignores it — per-shard Phase 1 already probes exactly one value's
    /// partition, and its plan stats stay zero.
    ProbePlanner* probe_planner = nullptr;
  };

  ShardedStreamEngine(StreamTopology topology, Options options);

  /// Same contract and observer protocol as StreamEngine::Run. Whether the
  /// run executes sharded is decided here, once, from
  /// `policy.shard_scoring()`; a serial run delegates to an internal
  /// StreamEngine outright (identical results either way). Like the serial
  /// engine, implemented as Open + Advance + Close over a private session.
  EngineRunResult Run(const std::vector<const std::vector<Value>*>& streams,
                      EnginePolicy& policy,
                      const std::vector<StepObserver*>& observers = {});

  // --- Incremental session lifecycle --------------------------------
  //
  // Mirrors StreamEngine's. The serial/sharded decision is taken once,
  // at Open, exactly as in Run(). A serial fallback opens an
  // engine-portable session on the internal StreamEngine (the engine's
  // own capacity/warmup/window apply). A sharded session pins to this
  // engine — the slot, worker and arena structures backing it are
  // engine-resident — and at most one sharded session may be open per
  // engine at a time. Either way, slicing a stream into any pattern of
  // Advance batches reproduces the batch Run bit for bit.

  void Open(SessionState& session, EnginePolicy& policy,
            std::vector<StepObserver*> observers = {});
  void Advance(SessionState& session,
               const std::vector<const std::vector<Value>*>& batch);
  const EngineRunResult& Drain(const SessionState& session) const;
  EngineRunResult Close(SessionState& session);

  /// Why the most recent Run/Open on this engine fell back to the serial
  /// executor; nullptr when it genuinely ran sharded. The fallback is
  /// silent by design (results are identical), so façades surface this
  /// through telemetry instead of letting a sharded benchmark quietly
  /// measure the serial path.
  const char* fallback_reason() const { return fallback_reason_; }

  const StreamTopology& topology() const { return serial_.topology(); }
  const Options& options() const { return options_; }

  /// Worker-team size the sharded path runs with: min(`threads`,
  /// `shards`) when `threads` is set, else DefaultThreads(shards). 1 when
  /// shards <= 1.
  int effective_threads() const;

  /// effective_threads() of a default-constructed engine at `shards`,
  /// without building one (for benchmark metadata).
  static int DefaultThreads(int shards);

  /// Skew/rebalance telemetry of the last Run; all-zero when that run was
  /// not adaptive (serial fallback, shards <= 1, or adaptive disabled).
  const AdaptiveShardStats& adaptive_stats() const { return adaptive_stats_; }

  /// The adaptive map as left by the last adaptive Run — version(),
  /// history() and bounds() back the rerun-determinism tests. Null until
  /// the engine has run adaptively at least once.
  const AdaptivePartitionMap* adaptive_map() const {
    return adaptive_map_.get();
  }

  /// Worker-team telemetry (per-kind epoch counters) for tests; null
  /// before the first sharded run.
  const ShardWorkers* workers() const { return workers_.get(); }

 private:
  /// A retention candidate paired with its policy merge key.
  struct ScoredEntry {
    ShardKey key;
    StreamTuple tuple;
  };

  /// A sorted run entering the merge cascade (arena- or vector-backed).
  struct MergeRun {
    const ScoredEntry* data = nullptr;
    std::size_t size = 0;
  };

  /// One pairwise merge of a cascade level; out has room for both inputs.
  struct MergeJob {
    MergeRun a;
    MergeRun b;
    ScoredEntry* out = nullptr;
  };

  /// One value-domain shard: the slice of the cache whose values hash
  /// here, its Phase-1 index, and this step's scored run. Cache-line
  /// aligned so per-shard writes from different workers never false-share;
  /// the scored/dropped runs live in the owning worker's arena.
  struct alignas(64) ShardSlot {
    std::vector<StreamTuple> cache;
    /// Value -> cached-tuple count, per stream; engaged under the same
    /// criteria as the serial engine's index.
    std::vector<std::unordered_map<Value, std::int64_t>> value_index;
    /// This step's (merge key, tuple) run, sorted best-first. Arena span
    /// carved by the driver before the epoch (capacity cache.size()).
    ScoredEntry* scored = nullptr;
    std::size_t scored_size = 0;
    /// Cached tuples the policy scored as nullopt this step (e.g. the
    /// reduction's dead copy): evicted unconditionally, tracked only for
    /// the index decrement. Arena span, capacity cache.size().
    StreamTuple* dropped = nullptr;
    std::size_t dropped_size = 0;
    std::unique_ptr<ShardScratch> scratch;
    /// Phase-1 results produced by this shard's probes this step.
    std::int64_t produced = 0;
    /// SoA lanes + kernel scratch for batch scoring of this shard's cached
    /// run; arena spans carved with scored/dropped (capacity cache.size())
    /// only when the run batch-scores.
    Value* batch_values = nullptr;
    Time* batch_arrivals = nullptr;
    std::uint8_t* batch_sides = nullptr;
    TupleId* batch_ids = nullptr;
    double* batch_scores = nullptr;
    ShardKey* batch_keys = nullptr;
  };

  /// Pre-epoch driver context handed to the type-erased epoch thunks.
  struct StepEpochContext {
    ShardedStreamEngine* engine = nullptr;
    const EngineContext* ctx = nullptr;
    EngineShardScoring* scoring = nullptr;
    Time now = 0;
    bool use_value_index = false;
  };

  /// The once-per-run (or once-per-Open) executor decision: non-null iff
  /// the policy decomposes and shards > 1. Records fallback_reason_.
  EngineShardScoring* DecideScoring(EnginePolicy& policy);

  /// Sharded-path lifecycle backing both Run and the public session API.
  void OpenSharded(SessionState& session, EnginePolicy& policy,
                   EngineShardScoring& scoring,
                   std::vector<StepObserver*> observers, Time known_length);
  void AdvanceSharded(SessionState& session,
                      const std::vector<const std::vector<Value>*>& batch);
  EngineRunResult CloseSharded(SessionState& session);
  /// Delivers the buffered scalar step views, in order.
  void FlushPendingViews(const std::vector<StepObserver*>& observers);

  /// Worker w's slice of the probe/score epoch: every shard s with
  /// s % workers == w, in shard order.
  void RunShardSlice(const StepEpochContext& step, int worker);
  /// One shard's probes + cached scoring + run sort (worker context).
  void ProcessShard(const StepEpochContext& step, std::size_t shard);
  /// Worker w's slice of a merge-cascade level.
  void RunMergeSlice(int worker);
  static void MergePair(const MergeJob& job);

  /// Type-erased trampolines handed to ShardWorkers::RunEpoch.
  static void ShardsEpochThunk(void* raw, int worker);
  static void MergeEpochThunk(void* raw, int worker);
  static void MigrationEpochThunk(void* raw, int worker);

  /// One rebalance checkpoint: record the window's skew ratios, let the
  /// adaptive map consider a rebalance against the accumulated bucket
  /// loads, migrate on change, zero the window counters.
  void RebalanceCheckpoint(Time now);
  /// Rebuilds every shard's cache slice and Phase-1 index from the merged
  /// global cache after the map moved (one kMigration worker epoch).
  void MigrateSlots();
  /// Worker w's migration slice: rebuild every slot s with
  /// s % workers == w.
  void RunMigrationSlice(int worker);

  /// Sorts a scored run best-first. Shard runs enter nearly sorted (the
  /// commit rebuilds shard caches in merged order, and score advancement
  /// rarely reorders neighbours), so RankTopK (ranked_select.h) over the
  /// whole run takes its insertion pass and falls back to a full sort
  /// only past its shift budget. Either path yields the same unique order
  /// — the keys are a strict total order.
  static void SortRun(ScoredEntry* run, std::size_t size);

  std::size_t ShardOf(Value value) const {
    return adaptive_run_ ? adaptive_map_->PartitionOf(value)
                         : partition_.PartitionOf(value);
  }

  /// Sum of growth_events() over the team's arenas (validation hook).
  std::int64_t ArenaGrowthEvents() const;

  Options options_;
  /// Serial engine: fallback executor and the topology/option holder.
  StreamEngine serial_;
  HashPartition partition_;
  /// Why the last Run/Open fell back to serial (static string), or null.
  const char* fallback_reason_ = nullptr;
  /// Guards the engine-resident sharded-run state below: only one sharded
  /// session (Run included) may be open at a time.
  bool sharded_session_open_ = false;
  /// Session backing the sharded path of Run(); reused across calls.
  std::unique_ptr<SessionState> run_session_;
  /// Adaptive range map; constructed lazily on the first adaptive run and
  /// Reset() at the start of every later one (rerun determinism).
  std::unique_ptr<AdaptivePartitionMap> adaptive_map_;
  /// Whether the *current/last* run partitions through adaptive_map_.
  bool adaptive_run_ = false;
  bool run_use_value_index_ = false;
  /// Whether the current/last sharded run scores cached runs through the
  /// policy's batch kernel; decided once at OpenSharded from the
  /// process-wide switch and the scoring's ShardBatchScorable().
  bool run_batch_scoring_ = false;
  /// Candidates scored per micro-bucket since the last checkpoint. Each
  /// bucket belongs to exactly one shard, and each shard to exactly one
  /// worker per epoch, so workers write disjoint counters — sums are
  /// deterministic for any thread count.
  std::vector<std::int64_t> bucket_load_;
  AdaptiveShardStats adaptive_stats_;
  /// Persistent worker team, rebuilt only when the team shape changes;
  /// reused across Run() calls so steady-state runs spawn no threads.
  std::unique_ptr<ShardWorkers> workers_;

  // Sharded-run state, hoisted so the steady state allocates nothing.
  std::vector<ShardSlot> slots_;
  std::vector<StreamTuple> cache_;  // Global cache, merged (serial) order.
  std::vector<StreamTuple> new_cache_;
  std::vector<StreamTuple> arrivals_;
  std::vector<StreamHistory> histories_;
  std::vector<ScoredEntry> arrival_scored_;
  std::vector<TupleId> decided_;
  std::vector<TupleId> retained_;
  std::vector<TupleId> evicted_;  // candidates \ retained, per step.
  // Merge-cascade state: the current level's sorted runs, the next
  // level's, and the level's pairwise jobs (outputs are arena spans).
  std::vector<MergeRun> merge_runs_;
  std::vector<MergeRun> next_runs_;
  std::vector<MergeJob> merge_jobs_;
  // Deferred observer views for batched delivery (scalar fields only).
  std::vector<EngineStepView> pending_views_;
  /// Decided-step commit: candidate id -> lane, plus the retained marks.
  CandidateLanes lanes_;
  std::int64_t arena_growth_baseline_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_
