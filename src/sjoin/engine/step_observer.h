#ifndef SJOIN_ENGINE_STEP_OBSERVER_H_
#define SJOIN_ENGINE_STEP_OBSERVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/stopwatch.h"
#include "sjoin/common/types.h"
#include "sjoin/engine/lane_table.h"
#include "sjoin/engine/stream_tuple.h"

/// \file
/// The StreamEngine's composable instrumentation chain.
///
/// Every ad-hoc hook the three pre-engine simulators grew — the
/// `track_cache_composition` option, `peak_candidates` telemetry, ns/step
/// timing, validation invariants — is expressed as a StepObserver attached
/// to a run. The engine itself only joins and replaces; everything that
/// merely *watches* a run lives here, so new instrumentation composes
/// instead of widening Options structs.

namespace sjoin {

class StreamTopology;
class ScoredPolicy;

/// Perf telemetry shared by every façade's run result. `run_ns` is wall
/// time and is never compared by differential suites; `peak_candidates`
/// and `steps` are deterministic and are.
struct EngineTelemetry {
  /// Largest candidate set (cache plus arrivals) handed to the policy in
  /// any step; perf telemetry for BENCH_perf.json.
  std::int64_t peak_candidates = 0;
  /// Steps executed (== stream length).
  std::int64_t steps = 0;
  /// Wall time of the engine loop, monotonic clock.
  std::int64_t run_ns = 0;
  /// Probe-plan accounting (engine/probe_planner.h); all zero unless the
  /// run attached a ProbePlanner. Deterministic, like peak_candidates.
  std::int64_t probes = 0;
  std::int64_t probe_skips = 0;
  std::int64_t probe_cache_hits = 0;
  std::int64_t plan_replans = 0;
};

/// Run-constant facts, handed to OnRunBegin / OnRunEnd.
struct EngineRunView {
  const StreamTopology* topology = nullptr;
  std::size_t capacity = 0;
  Time warmup = 0;
  std::optional<Time> window;
  /// At OnRunBegin: total steps when known up front (batch Run), or -1
  /// for an incrementally advanced session, whose length is unknown
  /// until it closes. At OnRunEnd: steps actually executed.
  Time length = 0;
};

/// One step's outcome, handed to OnStep after replacement has settled.
struct EngineStepView {
  Time now = 0;
  /// Result tuples produced by this step's Phase-1 probes.
  std::int64_t produced = 0;
  /// True when now >= warmup (the step counts toward the paper's metric).
  bool counted = false;
  /// Size of the candidate set (previous cache plus arrivals) the policy
  /// chose from this step.
  std::size_t num_candidates = 0;
  /// This step's probe-plan accounting (zero without a ProbePlanner):
  /// probes considered, short-circuited, served from the probe-result
  /// cache, and whether a checkpoint re-plan changed an order.
  std::int64_t probes = 0;
  std::int64_t probe_skips = 0;
  std::int64_t probe_cache_hits = 0;
  std::int64_t plan_replans = 0;
  /// Cache content after replacement.
  const std::vector<StreamTuple>* cache = nullptr;
  /// This step's arrivals, one per stream.
  const std::vector<StreamTuple>* arrivals = nullptr;
  /// Ids the policy retained, in policy order.
  const std::vector<TupleId>* retained = nullptr;
};

/// Interface for run instrumentation. Observers are invoked in attachment
/// order; they must not mutate engine state.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void OnRunBegin(const EngineRunView& run) { (void)run; }
  virtual void OnStep(const EngineStepView& step) { (void)step; }
  virtual void OnRunEnd(const EngineRunView& run) { (void)run; }
};

/// Collects EngineTelemetry (peak candidate set, step count, wall time).
/// The façades attach one to every run.
class PerfObserver final : public StepObserver {
 public:
  void OnRunBegin(const EngineRunView& run) override;
  void OnStep(const EngineStepView& step) override;
  void OnRunEnd(const EngineRunView& run) override;

  const EngineTelemetry& telemetry() const { return telemetry_; }

 private:
  EngineTelemetry telemetry_;
  Stopwatch stopwatch_;
};

/// Appends, per step, the fraction of cache slots holding tuples of
/// `stream` (empty cache counts as 0). Replaces JoinSimulator's old
/// `track_cache_composition` option; Figures 14, 17 and 18 attach it with
/// stream 0 (= R).
class CacheCompositionObserver final : public StepObserver {
 public:
  /// `out` is not owned and must outlive the run.
  CacheCompositionObserver(int stream, std::vector<double>* out)
      : stream_(stream), out_(out) {}

  void OnStep(const EngineStepView& step) override;

 private:
  int stream_;
  std::vector<double>* out_;
};

/// Re-checks the engine's own replacement invariants from outside the
/// loop: capacity bound, unique ids, streams within topology range,
/// retained ⊆ candidates. The engine attaches one automatically when the
/// build enables SJOIN_VALIDATE; tests can attach it explicitly.
class ValidationObserver final : public StepObserver {
 public:
  void OnRunBegin(const EngineRunView& run) override;
  void OnStep(const EngineStepView& step) override;

 private:
  std::size_t capacity_ = 0;
  int num_streams_ = 0;
  /// Duplicate-id scratch, sized at OnRunBegin and reused every step.
  LaneTable<TupleId> ids_;
};

/// One observed (step, tuple, score) triple.
struct ScoreSample {
  Time step = 0;
  TupleId id = 0;
  double score = 0.0;
};

/// Bridges ScoredPolicy's score-observer hook into the observer chain: on
/// OnRunBegin it installs a recorder on the policy, and it timestamps each
/// score with the step being decided. Score callbacks for the decision at
/// time t fire between OnStep(t-1) and OnStep(t), so the recorder labels
/// them with the step counter *before* it is advanced by OnStep.
class ScoreTraceObserver final : public StepObserver {
 public:
  /// `policy` is not owned; its score observer is replaced for the run
  /// and cleared at OnRunEnd.
  explicit ScoreTraceObserver(ScoredPolicy* policy) : policy_(policy) {}

  void OnRunBegin(const EngineRunView& run) override;
  void OnStep(const EngineStepView& step) override;
  void OnRunEnd(const EngineRunView& run) override;

  const std::vector<ScoreSample>& samples() const { return samples_; }

 private:
  ScoredPolicy* policy_;
  std::vector<ScoreSample> samples_;
  Time current_step_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_STEP_OBSERVER_H_
