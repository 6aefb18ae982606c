#include "sjoin/engine/sharded_stream_engine.h"

#include <algorithm>
#include <utility>

#include "sjoin/common/check.h"
#include "sjoin/common/thread_pool.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/scoring_batch.h"

namespace sjoin {
namespace {

/// Steps per observer batch when every attached observer allows deferred
/// delivery: the engine buffers that many scalar step views before
/// synchronizing with the observer chain, keeping the workers hot across
/// the whole batch.
constexpr std::size_t kStepBatchSteps = 64;

/// A merge-cascade level fans out to the workers only past this many
/// total entries; below it the driver merges inline — the epoch ticket is
/// cheap, but not two-cache-misses cheap. The threshold affects timing
/// only, never output: every merge order yields the same sequence.
constexpr std::size_t kParallelMergeMinEntries = 4096;

}  // namespace

ShardedStreamEngine::ShardedStreamEngine(StreamTopology topology,
                                         Options options)
    : options_(options),
      serial_(std::move(topology),
              StreamEngine::Options{options.capacity, options.warmup,
                                    options.window, nullptr,
                                    options.probe_planner}),
      partition_(static_cast<std::size_t>(
          options.shards > 1 ? options.shards : 1)) {
  SJOIN_CHECK_GE(options_.shards, 1);
  SJOIN_CHECK_GE(options_.threads, 0);
}

void ShardedStreamEngine::SortRun(ScoredEntry* run, std::size_t size) {
  RankTopK(run, size, size, [](const ScoredEntry& a, const ScoredEntry& b) {
    return ShardKeyBetter(a.key, b.key);
  });
}

int ShardedStreamEngine::DefaultThreads(int shards) {
  if (shards <= 1) return 1;
  return std::min(shards, ThreadPool::DefaultThreads());
}

int ShardedStreamEngine::effective_threads() const {
  if (options_.shards <= 1) return 1;
  if (options_.threads > 0) {
    return std::min(options_.threads, options_.shards);
  }
  return DefaultThreads(options_.shards);
}

std::int64_t ShardedStreamEngine::ArenaGrowthEvents() const {
  if (workers_ == nullptr) return 0;
  std::int64_t total = 0;
  for (int w = 0; w < workers_->num_workers(); ++w) {
    total += const_cast<ShardWorkers*>(workers_.get())->arena(w)
                 .growth_events();
  }
  return total;
}

EngineShardScoring* ShardedStreamEngine::DecideScoring(
    EnginePolicy& policy) {
  // Sharding needs a score-decomposable policy and more than one shard.
  // Either executor produces bit-identical results, which is exactly why
  // the fallback must leave a trace: a "sharded" benchmark or serve run
  // that quietly measured the serial path would report the wrong thing
  // while producing the right numbers.
  if (options_.shards <= 1) {
    fallback_reason_ = "shards <= 1: sharding not requested";
    return nullptr;
  }
  EngineShardScoring* scoring = policy.shard_scoring();
  if (scoring == nullptr) {
    fallback_reason_ = "policy is serial-only (no shard scoring)";
    return nullptr;
  }
  fallback_reason_ = nullptr;
  return scoring;
}

EngineRunResult ShardedStreamEngine::Run(
    const std::vector<const std::vector<Value>*>& streams,
    EnginePolicy& policy, const std::vector<StepObserver*>& observers) {
  // The serial/sharded decision is taken here, once per run.
  EngineShardScoring* scoring = DecideScoring(policy);
  if (scoring == nullptr) {
    adaptive_run_ = false;  // This run partitions nothing.
    adaptive_stats_ = {};
    return serial_.Run(streams, policy, observers);
  }
  const int n = serial_.topology().num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(streams.size()), n);
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time len = static_cast<Time>(streams[0]->size());
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), len);
  }
  if (run_session_ == nullptr) {
    run_session_ = std::make_unique<SessionState>();
  }
  OpenSharded(*run_session_, policy, *scoring, observers, len);
  AdvanceSharded(*run_session_, streams);
  return CloseSharded(*run_session_);
}

void ShardedStreamEngine::Open(SessionState& session, EnginePolicy& policy,
                               std::vector<StepObserver*> observers) {
  EngineShardScoring* scoring = DecideScoring(policy);
  if (scoring == nullptr) {
    adaptive_run_ = false;
    adaptive_stats_ = {};
    serial_.Open(session, serial_.options(), policy, std::move(observers));
    return;
  }
  OpenSharded(session, policy, *scoring, std::move(observers),
              /*known_length=*/-1);
}

void ShardedStreamEngine::Advance(
    SessionState& session,
    const std::vector<const std::vector<Value>*>& batch) {
  if (session.sharded_owner == nullptr) {
    serial_.Advance(session, batch);
    return;
  }
  SJOIN_CHECK_MSG(session.sharded_owner == this,
                  "sharded session advanced by an engine that did not "
                  "open it");
  AdvanceSharded(session, batch);
}

const EngineRunResult& ShardedStreamEngine::Drain(
    const SessionState& session) const {
  SJOIN_CHECK_MSG(session.open, "Drain on a session that is not open");
  return session.result;
}

EngineRunResult ShardedStreamEngine::Close(SessionState& session) {
  if (session.sharded_owner == nullptr) {
    return serial_.Close(session);
  }
  SJOIN_CHECK_MSG(session.sharded_owner == this,
                  "sharded session closed by an engine that did not "
                  "open it");
  return CloseSharded(session);
}

void ShardedStreamEngine::ProcessShard(const StepEpochContext& step,
                                       std::size_t shard) {
  const StreamTopology& topology = serial_.topology();
  ShardSlot& slot = slots_[shard];
  slot.produced = 0;
  for (const StreamTuple& arrival : arrivals_) {
    if (ShardOf(arrival.value) != shard) continue;
    if (step.use_value_index) {
      for (int partner : topology.PartnersOf(arrival.stream)) {
        const auto& index = slot.value_index[static_cast<std::size_t>(partner)];
        auto it = index.find(arrival.value);
        if (it != index.end()) slot.produced += it->second;
      }
    } else {
      for (const StreamTuple& cached : slot.cache) {
        if (!InWindow(cached, step.now, step.ctx->window)) continue;
        if (cached.value != arrival.value) continue;
        if (topology.Joins(cached.stream, arrival.stream)) {
          ++slot.produced;
        }
      }
    }
  }
  if (adaptive_run_) {
    // Per-bucket load evidence for the rebalancer: every cached tuple this
    // shard scores this step. This worker owns every bucket of this shard,
    // so the counter writes are race-free and their sums thread-count
    // independent.
    for (const StreamTuple& cached : slot.cache) {
      ++bucket_load_[adaptive_map_->BucketOf(cached.value)];
    }
  }
  if (run_batch_scoring_ && !slot.cache.empty()) {
    // Batch path: gather the shard's cached run into SoA lanes and score
    // it with one fused kernel call. ShardBatchScorable policies never
    // exclude cached tuples, so every lane lands in scored and dropped
    // stays empty.
    const std::size_t lanes = slot.cache.size();
    for (std::size_t i = 0; i < lanes; ++i) {
      const StreamTuple& cached = slot.cache[i];
      slot.batch_values[i] = cached.value;
      slot.batch_arrivals[i] = cached.arrival;
      slot.batch_sides[i] = static_cast<std::uint8_t>(cached.stream);
      slot.batch_ids[i] = cached.id;
    }
    CandidateBatch batch;
    batch.size = lanes;
    batch.values = slot.batch_values;
    batch.arrivals = slot.batch_arrivals;
    batch.sides = slot.batch_sides;
    batch.ids = slot.batch_ids;
    step.scoring->ShardScoreCachedBatch(batch, *step.ctx, slot.scratch.get(),
                                        slot.batch_scores, slot.batch_keys);
    for (std::size_t i = 0; i < lanes; ++i) {
      slot.scored[slot.scored_size++] = {slot.batch_keys[i], slot.cache[i]};
    }
  } else {
    for (const StreamTuple& cached : slot.cache) {
      std::optional<ShardKey> key =
          step.scoring->ShardScoreCached(cached, *step.ctx,
                                         slot.scratch.get());
      if (key.has_value()) {
        slot.scored[slot.scored_size++] = {*key, cached};
      } else {
        slot.dropped[slot.dropped_size++] = cached;
      }
    }
  }
  SortRun(slot.scored, slot.scored_size);
}

void ShardedStreamEngine::RunShardSlice(const StepEpochContext& step,
                                        int worker) {
  const int workers = workers_->num_workers();
  ShardArena& arena = workers_->arena(worker);
  const auto num_shards = static_cast<std::size_t>(options_.shards);
  // Carve this slice's scratch on the worker itself (first touch is
  // worker-local) — every cached tuple lands in exactly one of
  // scored/dropped, so cache.size() bounds both.
  for (std::size_t shard = static_cast<std::size_t>(worker);
       shard < num_shards; shard += static_cast<std::size_t>(workers)) {
    ShardSlot& slot = slots_[shard];
    slot.scored = arena.AllocArray<ScoredEntry>(slot.cache.size());
    slot.scored_size = 0;
    slot.dropped = arena.AllocArray<StreamTuple>(slot.cache.size());
    slot.dropped_size = 0;
    if (run_batch_scoring_) {
      const std::size_t lanes = slot.cache.size();
      slot.batch_values = arena.AllocArray<Value>(lanes);
      slot.batch_arrivals = arena.AllocArray<Time>(lanes);
      slot.batch_sides = arena.AllocArray<std::uint8_t>(lanes);
      slot.batch_ids = arena.AllocArray<TupleId>(lanes);
      slot.batch_scores = arena.AllocArray<double>(lanes);
      slot.batch_keys = arena.AllocArray<ShardKey>(lanes);
    }
    ProcessShard(step, shard);
  }
}

void ShardedStreamEngine::MergePair(const MergeJob& job) {
  std::merge(job.a.data, job.a.data + job.a.size, job.b.data,
             job.b.data + job.b.size, job.out,
             [](const ScoredEntry& x, const ScoredEntry& y) {
               return ShardKeyBetter(x.key, y.key);
             });
}

void ShardedStreamEngine::RunMergeSlice(int worker) {
  const int workers = workers_->num_workers();
  for (std::size_t j = static_cast<std::size_t>(worker);
       j < merge_jobs_.size(); j += static_cast<std::size_t>(workers)) {
    MergePair(merge_jobs_[j]);
  }
}

void ShardedStreamEngine::ShardsEpochThunk(void* raw, int worker) {
  auto* step = static_cast<StepEpochContext*>(raw);
  step->engine->RunShardSlice(*step, worker);
}

void ShardedStreamEngine::MergeEpochThunk(void* raw, int worker) {
  static_cast<ShardedStreamEngine*>(raw)->RunMergeSlice(worker);
}

void ShardedStreamEngine::MigrationEpochThunk(void* raw, int worker) {
  static_cast<ShardedStreamEngine*>(raw)->RunMigrationSlice(worker);
}

void ShardedStreamEngine::RunMigrationSlice(int worker) {
  const int workers = workers_->num_workers();
  for (std::size_t shard = static_cast<std::size_t>(worker);
       shard < slots_.size(); shard += static_cast<std::size_t>(workers)) {
    ShardSlot& slot = slots_[shard];
    slot.cache.clear();
    for (auto& index : slot.value_index) index.clear();
    // The global cache keeps the merged (serial) order, so rebuilding a
    // slot as its subsequence preserves the nearly-sorted-runs property
    // the next step's SortRun relies on.
    for (const StreamTuple& tuple : cache_) {
      if (ShardOf(tuple.value) != shard) continue;
      slot.cache.push_back(tuple);
      if (run_use_value_index_) {
        ++slot.value_index[static_cast<std::size_t>(tuple.stream)]
                          [tuple.value];
      }
    }
  }
}

void ShardedStreamEngine::MigrateSlots() {
  // The map moved: cached tuples may now belong to different shards.
  // Rebuild every slot from the merged global cache — one migration epoch,
  // each worker rebuilding the slots it owns. Rare (at most one per
  // rebalance interval) and O(shards x cache / workers), so correctness
  // beats cleverness here.
  workers_->RunEpoch(&ShardedStreamEngine::MigrationEpochThunk, this,
                     ShardWorkers::EpochKind::kMigration);
}

void ShardedStreamEngine::RebalanceCheckpoint(Time now) {
  ++adaptive_stats_.windows;
  adaptive_stats_.static_ratio_sum +=
      adaptive_map_->StaticLoadRatio(bucket_load_);
  adaptive_stats_.adaptive_ratio_sum += adaptive_map_->LoadRatio(bucket_load_);
  if (adaptive_map_->Rebalance(bucket_load_, now)) {
    ++adaptive_stats_.rebalances;
    MigrateSlots();
  }
  adaptive_stats_.map_version = adaptive_map_->version();
  std::fill(bucket_load_.begin(), bucket_load_.end(), std::int64_t{0});
}

void ShardedStreamEngine::FlushPendingViews(
    const std::vector<StepObserver*>& observers) {
  for (const EngineStepView& view : pending_views_) {
    for (StepObserver* observer : observers) observer->OnStep(view);
  }
  pending_views_.clear();
}

void ShardedStreamEngine::OpenSharded(SessionState& session,
                                      EnginePolicy& policy,
                                      EngineShardScoring& scoring,
                                      std::vector<StepObserver*> observers,
                                      Time known_length) {
  const StreamTopology& topology = serial_.topology();
  const int n = topology.num_streams();
  SJOIN_CHECK_MSG(!session.open, "Open on a session that is already open");
  SJOIN_CHECK_MSG(!sharded_session_open_,
                  "only one sharded session may be open per engine (its "
                  "slot and arena state is engine-resident)");
  sharded_session_open_ = true;

  session.open = true;
  session.now = 0;
  session.result = EngineRunResult();
  session.policy = &policy;
  session.observers = std::move(observers);
  session.options =
      StreamEngine::Options{options_.capacity, options_.warmup,
                            options_.window, nullptr, nullptr};
  session.partitions = nullptr;
  session.sharded_owner = this;
  session.scoring = &scoring;

  policy.Reset();

  // The persistent team is rebuilt only when its shape changes, so
  // repeated runs (benchmark loops) spawn no threads after the first.
  const int threads = effective_threads();
  if (workers_ == nullptr || workers_->num_workers() != threads ||
      workers_->options().pin_threads != options_.pin_threads) {
    workers_ = std::make_unique<ShardWorkers>(ShardWorkers::Options{
        .workers = threads, .pin_threads = options_.pin_threads});
  }

  const auto num_shards = static_cast<std::size_t>(options_.shards);
  const bool use_value_index =
      !options_.window.has_value() &&
      options_.capacity >= StreamEngine::kValueIndexMinCapacity;
  run_use_value_index_ = use_value_index;
  // Batch-kernel decision, once per Open: the process-wide switch is read
  // here (serial code) and never again from worker threads, so a
  // mid-session flip cannot desynchronize shards.
  run_batch_scoring_ = ScoringBatchEnabled() && scoring.ShardBatchScorable();

  // Adaptive partitioning: the map is constructed once (the shard count
  // and bucket space are per-engine constants) and Reset() per run, so
  // equal runs replay an identical rebalance history.
  adaptive_run_ = options_.adaptive.enabled;
  adaptive_stats_ = {};
  if (adaptive_run_) {
    if (adaptive_map_ == nullptr) {
      adaptive_map_ = std::make_unique<AdaptivePartitionMap>(
          AdaptivePartitionMap::Options{
              .partitions = options_.shards,
              .num_buckets = options_.adaptive.num_buckets,
              .imbalance_ratio = options_.adaptive.imbalance_ratio});
    } else {
      adaptive_map_->Reset();
    }
    bucket_load_.assign(adaptive_map_->num_buckets(), 0);
    adaptive_stats_.partitions = options_.shards;
  }

  slots_.clear();
  slots_.resize(num_shards);
  for (ShardSlot& slot : slots_) {
    slot.cache.reserve(options_.capacity);
    slot.value_index.assign(static_cast<std::size_t>(n), {});
    slot.scratch = scoring.MakeShardScratch();
  }
  cache_.clear();
  cache_.reserve(options_.capacity);
  new_cache_.reserve(options_.capacity);
  arrivals_.reserve(static_cast<std::size_t>(n));
  histories_.assign(static_cast<std::size_t>(n), StreamHistory());
  arrival_scored_.reserve(static_cast<std::size_t>(n));
  retained_.reserve(options_.capacity + static_cast<std::size_t>(n));
  evicted_.reserve(options_.capacity + static_cast<std::size_t>(n));
  decided_.reserve(options_.capacity + static_cast<std::size_t>(n));
  lanes_.Reserve(options_.capacity + static_cast<std::size_t>(n));
  // At most num_shards + 1 runs enter the cascade, so it performs at most
  // num_shards pairwise merges per step across ceil(log2) levels.
  std::size_t levels = 0;
  for (std::size_t runs = num_shards + 1; runs > 1; runs = (runs + 1) / 2) {
    ++levels;
  }
  merge_runs_.reserve(num_shards + 1);
  next_runs_.reserve(num_shards + 1);
  merge_jobs_.reserve((num_shards + 2) / 2);
  pending_views_.reserve(kStepBatchSteps);

  // Worst-case per-step arena demand per worker: a worker's shards
  // partition at most the whole cache (capacity scored entries + capacity
  // dropped tuples), and each cascade level can hand one worker every
  // merge output (capacity + n entries total per level). Reserving that
  // up front makes steady-state steps allocation-free, which the
  // validation build asserts via the growth-event baseline.
  // Batch runs additionally carve per-shard SoA lanes and kernel scratch
  // (six spans per shard, capacity lanes total across a worker's shards).
  const std::size_t batch_lane_bytes =
      run_batch_scoring_
          ? options_.capacity *
                    (sizeof(Value) + sizeof(Time) + sizeof(std::uint8_t) +
                     sizeof(TupleId) + sizeof(double) + sizeof(ShardKey)) +
                6 * num_shards * 64
          : 0;
  const std::size_t arena_bytes =
      (options_.capacity + levels * (options_.capacity +
                                     static_cast<std::size_t>(n))) *
          sizeof(ScoredEntry) +
      options_.capacity * sizeof(StreamTuple) +
      (2 * num_shards + 2 * levels + 8) * 64 + batch_lane_bytes;
  for (int w = 0; w < threads; ++w) {
    workers_->arena(w).Reserve(arena_bytes);
  }
  arena_growth_baseline_ = ArenaGrowthEvents();

  session.use_value_index = use_value_index;

  EngineRunView run_view;
  run_view.topology = &topology;
  run_view.capacity = options_.capacity;
  run_view.warmup = options_.warmup;
  run_view.window = options_.window;
  run_view.length = known_length;
  for (StepObserver* observer : session.observers) {
    observer->OnRunBegin(run_view);
  }
  // An observer that disables sharded scoring during OnRunBegin (e.g. a
  // ScoreTraceObserver installing a score observer) would invalidate the
  // decision already taken above; fail loudly instead of racing.
  SJOIN_CHECK_MSG(policy.shard_scoring() != nullptr,
                  "an observer disabled sharded scoring after the engine "
                  "committed to it; run score tracers with shards = 1");

  // Batched multi-step execution: when every attached observer tolerates
  // deferred, scalar-only delivery, the engine synchronizes with the
  // chain once per kStepBatchSteps instead of every step (the views are
  // buffered in order, with the pointer fields null) and at Advance
  // boundaries. Any other observer keeps the classic step-synchronous
  // protocol.
  session.batched_observers = true;
  for (StepObserver* observer : session.observers) {
    session.batched_observers =
        session.batched_observers && observer->AllowsBatchedSteps();
  }
}

void ShardedStreamEngine::AdvanceSharded(
    SessionState& session,
    const std::vector<const std::vector<Value>*>& batch) {
  SJOIN_CHECK_MSG(session.open, "Advance on a session that is not open");
  const StreamTopology& topology = serial_.topology();
  const int n = topology.num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(batch.size()), n);
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time steps = static_cast<Time>(batch[0]->size());
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), steps);
  }

  EngineShardScoring& scoring = *session.scoring;
  const std::vector<StepObserver*>& observers = session.observers;
  const bool batch_ok = session.batched_observers;
  const bool use_value_index = run_use_value_index_;
  const int threads = workers_->num_workers();
  const auto num_shards = static_cast<std::size_t>(options_.shards);
  const Time rebalance_interval =
      std::max<Time>(options_.adaptive.interval, 1);

  workers_->BeginBatch();
  for (Time i = 0; i < steps; ++i) {
    const Time t = session.now;
    arrivals_.clear();
    for (int s = 0; s < n; ++s) {
      arrivals_.push_back(
          {StreamTupleIdAt(n, s, t), s,
           (*batch[static_cast<std::size_t>(s)])
               [static_cast<std::size_t>(i)],
           t});
    }
    for (int s = 0; s < n; ++s) {
      histories_[static_cast<std::size_t>(s)].Append(
          arrivals_[static_cast<std::size_t>(s)].value);
    }

    EngineContext ctx;
    ctx.now = t;
    ctx.capacity = options_.capacity;
    ctx.cached = &cache_;
    ctx.arrivals = &arrivals_;
    ctx.histories = &histories_;
    ctx.window = options_.window;

    decided_.clear();
    const bool scored_step = scoring.ShardBeginStep(ctx, &decided_);

    std::int64_t produced = 0;
    retained_.clear();
    new_cache_.clear();
    if (scored_step) {
      // One epoch over the persistent team: worker w runs Phase-1 probes,
      // cached scoring and the shard-local sort for every shard s with
      // s % workers == w, carving the shard's scored/dropped runs from
      // its own arena. Slices touch only their own slots (plus read-only
      // step state), so the post-epoch reduction needs no locks.
      for (int w = 0; w < threads; ++w) workers_->arena(w).Reset();
      StepEpochContext step;
      step.engine = this;
      step.ctx = &ctx;
      step.scoring = &scoring;
      step.now = t;
      step.use_value_index = use_value_index;
      workers_->RunEpoch(&ShardedStreamEngine::ShardsEpochThunk, &step,
                         ShardWorkers::EpochKind::kStep);
      for (const ShardSlot& slot : slots_) produced += slot.produced;

      // Arrivals are scored serially, in arrival order: policies may
      // mutate state here (HEEB inserts incremental entries).
      arrival_scored_.clear();
      for (const StreamTuple& arrival : arrivals_) {
        if (adaptive_run_) {
          ++bucket_load_[adaptive_map_->BucketOf(arrival.value)];
        }
        std::optional<ShardKey> key = scoring.ShardScoreArrival(arrival, ctx);
        if (key.has_value()) arrival_scored_.push_back({*key, arrival});
      }
      SortRun(arrival_scored_.data(), arrival_scored_.size());

      // Global merge of the shard runs plus the arrival run: a balanced
      // cascade of pairwise merges, ~log2(shards + 1) levels of tight
      // two-way merges instead of a (shards + 1)-wide head scan per pop.
      // Levels with enough work fan their independent pairs back out to
      // the workers (outputs are arena spans, job j on worker j % team).
      // std::merge is stable and the keys form a strict total order
      // (unique minors), so every merge shape — serial, parallel, any
      // pairing — yields exactly the serial engine's sorted candidate
      // order: same retained prefix, same cache order.
      merge_runs_.clear();
      for (ShardSlot& slot : slots_) {
        if (slot.scored_size > 0) {
          merge_runs_.push_back({slot.scored, slot.scored_size});
        }
      }
      if (!arrival_scored_.empty()) {
        merge_runs_.push_back(
            {arrival_scored_.data(), arrival_scored_.size()});
      }
      while (merge_runs_.size() > 1) {
        next_runs_.clear();
        merge_jobs_.clear();
        std::size_t level_entries = 0;
        for (std::size_t i = 0; i + 1 < merge_runs_.size(); i += 2) {
          const MergeRun& a = merge_runs_[i];
          const MergeRun& b = merge_runs_[i + 1];
          ScoredEntry* out =
              workers_->arena(static_cast<int>(merge_jobs_.size()) % threads)
                  .AllocArray<ScoredEntry>(a.size + b.size);
          merge_jobs_.push_back({a, b, out});
          next_runs_.push_back({out, a.size + b.size});
          level_entries += a.size + b.size;
        }
        if (merge_runs_.size() % 2 == 1) {
          next_runs_.push_back(merge_runs_.back());
        }
        if (threads > 1 && merge_jobs_.size() >= 2 &&
            level_entries >= kParallelMergeMinEntries) {
          workers_->RunEpoch(&ShardedStreamEngine::MergeEpochThunk, this,
                             ShardWorkers::EpochKind::kMerge);
        } else {
          for (const MergeJob& job : merge_jobs_) MergePair(job);
        }
        merge_runs_.swap(next_runs_);
      }
      const MergeRun merged =
          merge_runs_.empty()
              ? MergeRun{arrival_scored_.data(), arrival_scored_.size()}
              : merge_runs_.front();

      // Commit. The merged prefix is the retained set and the suffix is
      // the eviction list — no retained-set hashing anywhere. A candidate
      // is an arrival iff its arrival stamp is this step (cached tuples
      // were admitted strictly earlier), which is what decides the index
      // delta direction. Rebuilding every shard cache from the retained
      // prefix keeps slots in globally sorted order — that is what makes
      // next step's runs nearly sorted for SortRun.
      evicted_.clear();
      const std::size_t keep = std::min(options_.capacity, merged.size);
      for (std::size_t i = 0; i < keep; ++i) {
        const StreamTuple& tuple = merged.data[i].tuple;
        retained_.push_back(tuple.id);
        new_cache_.push_back(tuple);
        if (use_value_index && tuple.arrival == t) {
          ++slots_[ShardOf(tuple.value)]
                .value_index[static_cast<std::size_t>(tuple.stream)]
                            [tuple.value];
        }
      }
      const auto evict = [this, use_value_index, t](const StreamTuple& tuple) {
        evicted_.push_back(tuple.id);
        if (!use_value_index || tuple.arrival == t) return;  // Never indexed.
        ShardSlot& slot = slots_[ShardOf(tuple.value)];
        auto& index =
            slot.value_index[static_cast<std::size_t>(tuple.stream)];
        auto it = index.find(tuple.value);
        if (--it->second == 0) index.erase(it);
      };
      for (std::size_t i = keep; i < merged.size; ++i) {
        evict(merged.data[i].tuple);
      }
      for (ShardSlot& slot : slots_) {
        for (std::size_t i = 0; i < slot.dropped_size; ++i) {
          evict(slot.dropped[i]);
        }
      }
      // Arrivals the policy scored as nullopt were never retention
      // candidates, but they still belong to candidates \ retained.
      if (arrival_scored_.size() < arrivals_.size()) {
        for (const StreamTuple& arrival : arrivals_) {
          bool scored = false;
          for (const ScoredEntry& entry : arrival_scored_) {
            if (entry.tuple.id == arrival.id) {
              scored = true;
              break;
            }
          }
          if (!scored) evicted_.push_back(arrival.id);
        }
      }
      for (ShardSlot& slot : slots_) slot.cache.clear();
      for (const StreamTuple& tuple : new_cache_) {
        slots_[ShardOf(tuple.value)].cache.push_back(tuple);
      }
    } else {
      // Decided step (e.g. the reduction's cache-hit fast path): nothing
      // is scored; probe inline over the shard structures and validate the
      // decided ids the way the serial engine validates SelectRetained.
      for (const StreamTuple& arrival : arrivals_) {
        const ShardSlot& slot = slots_[ShardOf(arrival.value)];
        if (use_value_index) {
          for (int partner : topology.PartnersOf(arrival.stream)) {
            const auto& index =
                slot.value_index[static_cast<std::size_t>(partner)];
            auto it = index.find(arrival.value);
            if (it != index.end()) produced += it->second;
          }
        } else {
          for (const StreamTuple& cached : slot.cache) {
            if (!InWindow(cached, t, options_.window)) continue;
            if (cached.value != arrival.value) continue;
            if (topology.Joins(cached.stream, arrival.stream)) ++produced;
          }
        }
      }
      SJOIN_CHECK_LE(decided_.size(), options_.capacity);
      lanes_.Build(cache_, arrivals_);
      for (TupleId id : decided_) {
        const CandidateLanes::Lane lane = lanes_.Find(id);
        SJOIN_CHECK_MSG(lane != CandidateLanes::kNoLane,
                        "policy decided a tuple that is not a candidate");
        SJOIN_CHECK_MSG(lanes_.Take(lane),
                        "policy decided the same tuple twice");
        retained_.push_back(id);
        new_cache_.push_back(lanes_.tuple(lane));
      }

      // Commit for a decided step: incremental swap-remove against the
      // retained marks (decided steps retain almost everything, so a full
      // rebuild would be wasted work). Every shard-cached tuple is a
      // cached candidate, so its lane always resolves.
      evicted_.clear();
      for (ShardSlot& slot : slots_) {
        for (std::size_t i = 0; i < slot.cache.size();) {
          const StreamTuple& tuple = slot.cache[i];
          if (lanes_.taken(lanes_.Find(tuple.id))) {
            ++i;
            continue;
          }
          evicted_.push_back(tuple.id);
          if (use_value_index) {
            auto& index =
                slot.value_index[static_cast<std::size_t>(tuple.stream)];
            auto it = index.find(tuple.value);
            if (--it->second == 0) index.erase(it);
          }
          slot.cache[i] = slot.cache.back();
          slot.cache.pop_back();
        }
      }
      const auto num_cached = static_cast<CandidateLanes::Lane>(cache_.size());
      for (std::size_t a = 0; a < arrivals_.size(); ++a) {
        const StreamTuple& arrival = arrivals_[a];
        if (!lanes_.taken(num_cached + static_cast<CandidateLanes::Lane>(a))) {
          evicted_.push_back(arrival.id);
          continue;
        }
        ShardSlot& slot = slots_[ShardOf(arrival.value)];
        slot.cache.push_back(arrival);
        if (use_value_index) {
          ++slot.value_index[static_cast<std::size_t>(arrival.stream)]
                            [arrival.value];
        }
      }
    }

    session.result.total_results += produced;
    const bool counted = t >= options_.warmup;
    if (counted) session.result.counted_results += produced;
    // Cache and arrival ids never collide (arrival ids are minted this
    // step), so the candidate-set size is just the sum.
    const std::size_t num_candidates = cache_.size() + arrivals_.size();
    cache_.swap(new_cache_);

    scoring.ShardEndStep(ctx, retained_, evicted_);

    if constexpr (kValidationEnabled) {
      SJOIN_VALIDATE(cache_.size() <= options_.capacity);
      // The scored-step hot loop must never fall back to heap growth:
      // the arenas were reserved for the worst case at run setup.
      SJOIN_VALIDATE_MSG(ArenaGrowthEvents() == arena_growth_baseline_,
                         "per-step scratch outgrew the reserved arenas");
      // The shard caches must partition the global cache by value shard,
      // and each shard index must match a from-scratch recount.
      std::size_t sharded_total = 0;
      for (std::size_t shard = 0; shard < num_shards; ++shard) {
        const ShardSlot& slot = slots_[shard];
        sharded_total += slot.cache.size();
        std::vector<std::unordered_map<Value, std::int64_t>> recount(
            static_cast<std::size_t>(n));
        for (const StreamTuple& tuple : slot.cache) {
          SJOIN_VALIDATE_MSG(ShardOf(tuple.value) == shard,
                             "cached tuple stored in the wrong shard");
          ++recount[static_cast<std::size_t>(tuple.stream)][tuple.value];
        }
        if (use_value_index) {
          SJOIN_VALIDATE_MSG(recount == slot.value_index,
                             "shard value index out of sync with its cache");
        }
      }
      SJOIN_VALIDATE_MSG(sharded_total == cache_.size(),
                         "shard caches out of sync with the merged cache");
      for (const StreamTuple& tuple : cache_) {
        const std::vector<StreamTuple>& shard_cache =
            slots_[ShardOf(tuple.value)].cache;
        SJOIN_VALIDATE_MSG(
            std::any_of(shard_cache.begin(), shard_cache.end(),
                        [&tuple](const StreamTuple& other) {
                          return other.id == tuple.id;
                        }),
            "merged cache tuple missing from its shard");
      }
    }

    EngineStepView step_view;
    step_view.now = t;
    step_view.produced = produced;
    step_view.counted = counted;
    step_view.num_candidates = num_candidates;
    if (batch_ok) {
      if (!observers.empty()) {
        pending_views_.push_back(step_view);
        if (pending_views_.size() >= kStepBatchSteps) {
          FlushPendingViews(observers);
        }
      }
    } else {
      step_view.cache = &cache_;
      step_view.arrivals = &arrivals_;
      step_view.retained = &retained_;
      for (StepObserver* observer : observers) observer->OnStep(step_view);
    }

    // Step boundary: consider a rebalance. Never affects this step's
    // (already delivered) views, and the decision depends only on the
    // accumulated bucket loads — no clock, no randomness — so reruns
    // replay the same version history.
    if (adaptive_run_ && (t + 1) % rebalance_interval == 0) {
      RebalanceCheckpoint(t);
    }
    session.now = t + 1;
  }
  FlushPendingViews(observers);
  workers_->EndBatch();
}

EngineRunResult ShardedStreamEngine::CloseSharded(SessionState& session) {
  SJOIN_CHECK_MSG(session.open, "Close on a session that is not open");
  FlushPendingViews(session.observers);
  EngineRunView run_view;
  run_view.topology = &serial_.topology();
  run_view.capacity = options_.capacity;
  run_view.warmup = options_.warmup;
  run_view.window = options_.window;
  run_view.length = session.now;
  for (StepObserver* observer : session.observers) {
    observer->OnRunEnd(run_view);
  }
  session.open = false;
  session.policy = nullptr;
  session.scoring = nullptr;
  session.sharded_owner = nullptr;
  session.observers.clear();
  sharded_session_open_ = false;
  return session.result;
}

}  // namespace sjoin
