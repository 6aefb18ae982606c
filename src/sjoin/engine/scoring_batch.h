#ifndef SJOIN_ENGINE_SCORING_BATCH_H_
#define SJOIN_ENGINE_SCORING_BATCH_H_

/// \file
/// Process-wide switch for the batched SoA scoring kernels. Batching is on
/// by default; setting the environment variable SJOIN_BATCH_SCORING=0
/// disables it (any other value, or unset, leaves it on). Tests and
/// benchmarks flip the switch programmatically for A/B comparisons — the
/// kernels are bit-identical to the scalar path, so the flag must never
/// change results, only speed.
///
/// The flag may only be written while no engine is mid-step: engines
/// snapshot it when a run opens, and the scoring path reads it between
/// steps.

namespace sjoin {

/// Current state of the batch-scoring switch.
bool ScoringBatchEnabled();

/// Overrides the switch. Call only from serial code (test/bench setup).
void SetScoringBatchEnabled(bool enabled);

/// RAII override for A/B tests: forces the switch for the scope's lifetime
/// and restores the previous state on destruction.
class ScopedScoringBatch {
 public:
  explicit ScopedScoringBatch(bool enabled);
  ~ScopedScoringBatch();

  ScopedScoringBatch(const ScopedScoringBatch&) = delete;
  ScopedScoringBatch& operator=(const ScopedScoringBatch&) = delete;

 private:
  bool previous_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORING_BATCH_H_
