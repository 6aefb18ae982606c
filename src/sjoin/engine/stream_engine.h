#ifndef SJOIN_ENGINE_STREAM_ENGINE_H_
#define SJOIN_ENGINE_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/lane_table.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The unified step-loop core behind every simulator in the repo.
///
/// One engine, parameterized by a StreamTopology, runs the two-stream
/// joining problem (Section 2), the N-way multi-join generalization
/// (Appendix C), and — through the Theorem 1 reduction — the caching
/// problem. Each step: (Phase 1) the arrivals join the cache selected at
/// the previous step; (Phase 2) the policy picks the new cache from
/// cached ∪ arrivals.
/// Everything that merely watches a run (telemetry, composition tracking,
/// validation, score traces) attaches as a StepObserver chain.
///
/// `JoinSimulator`, `CacheSimulator` and `MultiJoinSimulator` are thin
/// façades over this class, kept for API stability; constructing the
/// engine directly is equally supported (the differential suites run both
/// ways in CI).

namespace sjoin {

class ProbePlanner;
struct SessionState;

/// The join graph: N streams plus the unordered stream pairs that equijoin.
class StreamTopology {
 public:
  /// `join_edges` lists unordered stream pairs that equijoin. Each pair
  /// must name two distinct in-range streams, and no unordered pair may
  /// appear twice — a duplicate or mirrored edge ((a,b) next to (b,a))
  /// would silently double-count every match on that edge.
  StreamTopology(int num_streams,
                 std::vector<std::pair<int, int>> join_edges);

  /// The classic two-stream topology: R (stream 0) joins S (stream 1).
  static StreamTopology Binary();

  int num_streams() const { return num_streams_; }
  const std::vector<std::pair<int, int>>& join_edges() const {
    return join_edges_;
  }

  /// Streams that join with `stream` under the join graph.
  const std::vector<int>& PartnersOf(int stream) const;

  /// True when streams `a` and `b` equijoin.
  bool Joins(int a, int b) const {
    return joins_[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)] != 0;
  }

 private:
  int num_streams_;
  std::vector<std::pair<int, int>> join_edges_;
  std::vector<std::vector<int>> partners_;
  /// Adjacency as a membership matrix for the Phase-1 join test.
  std::vector<std::vector<char>> joins_;
};

/// Step context for an engine replacement decision. For N = 2 this is
/// field-for-field the information of the binary PolicyContext
/// (histories[0] = R, histories[1] = S).
struct EngineContext {
  Time now = 0;
  std::size_t capacity = 0;
  const std::vector<StreamTuple>* cached = nullptr;
  const std::vector<StreamTuple>* arrivals = nullptr;  // One per stream.
  const std::vector<StreamHistory>* histories = nullptr;
  std::optional<Time> window;
  /// The engine's hand-offs for this step (replacement_policy.h), or null
  /// when the caller is not an engine.
  const EngineStep* step = nullptr;

  /// EngineStep::carried; false without an engine step.
  bool carried() const { return step != nullptr && step->carried; }
  /// EngineStep::retained_lanes; null without an engine step.
  std::vector<std::uint32_t>* retained_lanes() const {
    return step != nullptr ? step->retained_lanes : nullptr;
  }
};

/// Replacement policy for the engine: the single decision interface every
/// simulator now funnels into. Binary ReplacementPolicy implementations
/// attach through BinaryPolicyAdapter; CachingPolicy implementations
/// attach through the Theorem 1 reduction (engine/reduction.h) followed by
/// the same adapter.
class EnginePolicy {
 public:
  virtual ~EnginePolicy() = default;
  virtual void Reset() {}
  /// Subset of cached ∪ arrivals ids, size <= capacity.
  virtual std::vector<TupleId> SelectRetained(const EngineContext& ctx) = 0;
  /// Always false: the engine builds no candidate batch. Kept only
  /// because perfbench's TimedPolicy overrides it and its decorator test
  /// calls it; deleted by ROADMAP item 1's benchmark change.
  virtual bool WantsCandidateBatch() const { return false; }
  virtual const char* name() const = 0;
};

/// Per-run accounting of the engine loop. Telemetry (peak candidates,
/// ns/step) is an observer concern — attach a PerfObserver.
struct EngineRunResult {
  /// Result tuples produced from the cache over the whole run.
  std::int64_t total_results = 0;
  /// Result tuples produced at times >= warmup (the paper's metric).
  std::int64_t counted_results = 0;
};

/// The unified step-loop core.
class StreamEngine {
 public:
  struct Options {
    /// Cache capacity k.
    std::size_t capacity = 10;
    /// Results produced before this time are not counted.
    Time warmup = 0;
    /// Sliding-window length (Section 7); nullopt = regular join.
    std::optional<Time> window;
    /// Runtime probe planning for Phase 1 (engine/probe_planner.h): probe
    /// order re-planned from observed selectivities at deterministic
    /// checkpoints, empty-partner probes short-circuited, repeated
    /// (partner, value) probes served from a memo. Cost-only — results are
    /// bit-identical to the fixed-order loop. Not owned; must outlive the
    /// Run. nullptr = naive probe order.
    ProbePlanner* probe_planner = nullptr;
  };

  /// Below this capacity the Phase-1 linear probe beats the hash index
  /// (two comparisons per cached tuple vs. hash lookups plus index
  /// upkeep).
  static constexpr std::size_t kValueIndexMinCapacity = 32;

  StreamEngine(StreamTopology topology, Options options);

  /// Simulates one realization (`streams[s]` is stream s's values; all
  /// equal length, one pointer per topology stream, none null) under
  /// `policy`. Calls policy.Reset() first, then drives `observers` in
  /// order around every step. Reuses internal buffers: a StreamEngine
  /// instance is cheap to Run repeatedly but not concurrently — the
  /// thread-safe façades construct one engine per call instead.
  ///
  /// Implemented as exactly Open + Advance + Close over a private
  /// session, so batch and incremental execution are bit-identical by
  /// construction.
  EngineRunResult Run(const std::vector<const std::vector<Value>*>& streams,
                      EnginePolicy& policy,
                      const std::vector<StepObserver*>& observers = {});

  // --- Incremental session lifecycle --------------------------------
  //
  // A session carries everything a run accumulates between steps
  // (SessionState below); the engine is a stateless executor over it.
  // Any engine with an equal topology may execute a session's next
  // Advance (one call at a time — the engine's step scratch is not
  // reentrant), which is what lets the serve layer multiplex thousands
  // of sessions over an engine per worker thread.

  /// Opens `session` for incremental execution under `options` (which
  /// override the engine's own): resets all per-run state, calls
  /// policy.Reset(), binds the observer chain and delivers OnRunBegin
  /// with length = -1 (unknown — arrivals have not happened yet).
  /// `policy`, `observers` and `options.probe_planner` are borrowed and
  /// must outlive the session.
  /// Neither a policy instance nor a planner may serve two sessions that
  /// are open at the same time. A closed SessionState can be reopened;
  /// its buffers are reused.
  void Open(SessionState& session, const Options& options,
            EnginePolicy& policy, std::vector<StepObserver*> observers = {});

  /// Advances an open session by `batch[0]->size()` steps (one pointer
  /// per topology stream, none null, all equal length; length zero is a
  /// no-op). `batch[s]` extends stream s: step times continue at
  /// `session.now`, so warmup and windows keep their absolute meaning.
  void Advance(SessionState& session,
               const std::vector<const std::vector<Value>*>& batch);

  /// Progress so far. The engine buffers nothing between steps — arrival
  /// queueing lives in serve::SessionScheduler, which drains its queues
  /// through Advance — so Drain is a read, kept for lifecycle symmetry.
  const EngineRunResult& Drain(const SessionState& session) const;

  /// Delivers OnRunEnd (length = steps actually executed), marks the
  /// session closed and returns its final result.
  EngineRunResult Close(SessionState& session);

  const StreamTopology& topology() const { return topology_; }
  const Options& options() const { return options_; }

 private:
  /// Open with a length already known (batch Run): OnRunBegin reports it
  /// instead of the incremental -1 sentinel.
  void OpenWithLength(SessionState& session, const Options& options,
                      EnginePolicy& policy,
                      std::vector<StepObserver*> observers,
                      Time known_length);

  StreamTopology topology_;
  Options options_;

  /// Session backing Run(); lazily built, reused across calls so the
  /// historical "cheap to Run repeatedly" contract still holds.
  std::unique_ptr<SessionState> run_session_;

  // Per-step scratch (cleared or rebuilt every step), hoisted so the
  // steady state allocates nothing. This is what makes an engine cheap
  // to share across sessions — and what makes Advance non-reentrant.
  std::vector<StreamTuple> new_cache_;
  std::vector<StreamTuple> arrivals_;
  CandidateLanes lanes_;
  // The policy's retained-lane report (EngineStep::retained_lanes).
  std::vector<std::uint32_t> retained_lanes_;
};

/// Everything a run accumulates between steps — the engine's former
/// per-run members, carved out so one engine can execute any number of
/// interleaved sessions. Plain data; the executing engine owns all the
/// invariants. Callers treat it as an opaque token between lifecycle
/// calls, except for the cheap reads (`now`, `result`, `is_open`).
/// Sessions are engine-portable: any engine with an equal topology may
/// execute a session's next lifecycle call.
struct SessionState {
  /// True between Open and Close.
  bool open = false;
  /// Time of the next step == steps executed so far.
  Time now = 0;
  /// Results accumulated so far; what Drain reports mid-session.
  EngineRunResult result;

  bool is_open() const { return open; }

  // Bindings fixed at Open. None owned; all must outlive the session.
  EnginePolicy* policy = nullptr;
  std::vector<StepObserver*> observers;
  StreamEngine::Options options;
  /// Phase-1 index decision, taken once at Open (same criteria as the
  /// batch run: no window, capacity >= kValueIndexMinCapacity).
  bool use_value_index = false;

  // The join state proper: the cache selected at the previous step, each
  // stream's value history (its last StreamHistory::kTail values, so the
  // session does not grow with the steps it serves), and the Phase-1
  // acceleration structures.
  std::vector<StreamTuple> cache;
  std::vector<StreamHistory> histories;
  /// Value -> cached-tuple count, per stream.
  std::vector<std::unordered_map<Value, std::int64_t>> value_index;
  /// Cached tuples per stream; maintained only when a probe planner is
  /// attached (backs its empty-partner short-circuit).
  std::vector<std::int64_t> stream_counts;

};

/// Adapts a binary ReplacementPolicy to the engine interface for
/// two-stream topologies: stream 0 plays R, stream 1 plays S, and ids pass
/// through unchanged (StreamTupleIdAt(2, s, t) == TupleIdAt(side, t)), so
/// the policy's view is bit-identical to the pre-engine JoinSimulator's.
class BinaryPolicyAdapter final : public EnginePolicy {
 public:
  /// `policy` is not owned and must outlive the adapter.
  explicit BinaryPolicyAdapter(ReplacementPolicy* policy)
      : policy_(policy) {}

  void Reset() override;
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override;
  const char* name() const override { return policy_->name(); }

 private:
  ReplacementPolicy* policy_;
  // Mirrors of the engine's cache/arrivals in binary Tuple form, reused
  // across steps.
  std::vector<Tuple> cached_;
  std::vector<Tuple> arrivals_;
  /// Points into cached_/arrivals_; rebuilt by every SelectRetained.
  PolicyContext binary_ctx_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_STREAM_ENGINE_H_
