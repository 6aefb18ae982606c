#ifndef SJOIN_ENGINE_SCORE_MEMO_H_
#define SJOIN_ENGINE_SCORE_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// Per-step memo of per-partner score subtotals, and the shared ring of
/// partner predictions those subtotals are computed from (DESIGN.md §2f).
///
/// Every multi-way policy scores a candidate as a *sum over its partner
/// streams* of a per-partner subtotal that depends only on (partner,
/// value[, score horizon]) — for HEEB the Appendix C inner sum
/// Σ_Δt Pr{X^p = v} L(Δt), for PROB/LIFE the partner match frequency. The
/// N-way loop recomputes that subtotal for every candidate touching the
/// same (partner, value) pair; with a drifting value domain much narrower
/// than the candidate set, most lookups repeat. ScoreMemo caches the
/// subtotal for one step (predictions change every step, so entries are
/// epoch-stamped and die at BeginStep); MULTI-PROB, MULTI-LIFE and
/// EDGE-BUDGET use it. MULTI-HEEB needs no memo: its batched kernel
/// (multi/multi_heeb_policy.h) groups the candidates by key up front and
/// computes each (partner, value, horizon) subtotal exactly once.
///
/// Bit-identity: policies must compute the subtotal per partner and sum
/// the subtotals in fixed partner order whether or not the memo is
/// attached. A memoized subtotal is the stored double itself, so serving
/// it back is exact — cached-on and cached-off runs score every tuple
/// bit-identically, which the multi_planner differential suite checks.
///
/// The subtotals read partner predictions for now+1 .. now+horizon.
/// PredictionRing keeps those across steps, so a history-independent
/// stream pays one new prediction per step instead of `horizon`.

namespace sjoin {

/// One-step memo: (partner stream, value, horizon) -> score subtotal.
/// Not thread-safe; multi-way policies run serial-only.
class ScoreMemo {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };

  /// Sizes the memo for `num_streams` partner slots and clears everything
  /// (call from policy Reset / first step).
  void Reset(int num_streams);

  /// Invalidates every entry (constant time: bumps the epoch stamp).
  void BeginStep();

  /// True and `*out` filled when (partner, value) was stored this step
  /// with the same `max_dt`.
  bool Lookup(int partner, Value value, Time max_dt, double* out);

  /// Stores this step's subtotal for (partner, value, max_dt).
  void Store(int partner, Value value, Time max_dt, double subtotal);

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    Time max_dt = 0;
    double subtotal = 0.0;
  };

  std::uint64_t epoch_ = 0;
  std::vector<std::unordered_map<Value, Entry>> memo_;
  Stats stats_;
};

/// Per-stream predictive pmfs for the times now+1 .. now+horizon, kept in
/// a ring of `horizon` slots per stream keyed by absolute time t mod
/// horizon, with each slot's support bounds cached next to it. Shared by
/// every policy that scores against partner predictions (MultiHeebPolicy,
/// EdgeBudgetPolicy).
///
/// For a stream whose process IsIndependent(), Predict ignores the
/// history, so the pmf of X_t does not change as now advances
/// (Corollaries 3–4): moving from now to now + d re-predicts only the d
/// slots that newly enter the horizon, and every other slot is reused as
/// is. Dependent streams re-predict the whole ring every step. The first
/// Advance after construction or Reset, a `now` that moves backwards, and
/// a jump of at least the horizon rebuild everything. A slot is therefore
/// always exactly PredictInto(history, t) for the current histories, which
/// SJOIN_VALIDATE builds re-check on one slot per Advance.
class PredictionRing {
 public:
  /// One slot's pmf, flattened: masses[v - lo] = Pr{X_t = v} for v in
  /// [lo, hi]; an empty pmf has hi < lo.
  struct Slot {
    const double* masses = nullptr;
    Value lo = 1;
    Value hi = 0;
  };

  /// Allocates nothing; the first Advance sizes the ring.
  explicit PredictionRing(Time horizon);

  /// Forgets every slot; the next Advance rebuilds the whole ring.
  void Reset() { valid_ = false; }

  /// Brings stream s's slots to X_{now+1} .. X_{now+horizon} of
  /// processes[s] given histories[s].
  void Advance(const std::vector<const StochasticProcess*>& processes,
               const std::vector<StreamHistory>& histories, Time now);

  /// Stream `stream`'s pmf of X_t, for t in now+1 .. now+horizon of the
  /// last Advance.
  const DiscreteDistribution& pmf(int stream, Time t) const {
    return pmfs_[Index(stream, t)];
  }
  /// Stream `stream`'s slots in ring order: X_t sits at RingIndex(t), so
  /// times t, t+1, ... walk the ring forwards with wrap-around (kernels
  /// step through it without a division per Δt).
  const Slot* slots(int stream) const {
    return slots_.data() + static_cast<std::size_t>(stream) *
                               static_cast<std::size_t>(horizon_);
  }

  /// t mod horizon, in [0, horizon).
  std::size_t RingIndex(Time t) const {
    Time r = t % horizon_;
    if (r < 0) r += horizon_;
    return static_cast<std::size_t>(r);
  }

  Time horizon() const { return horizon_; }

  /// PredictInto calls made so far (tests assert the incremental path).
  std::int64_t predictions() const { return predictions_; }

 private:
  std::size_t Index(int stream, Time t) const {
    return static_cast<std::size_t>(stream) *
               static_cast<std::size_t>(horizon_) +
           RingIndex(t);
  }

  /// Predicts X_t of `stream` into its slot and refreshes the bounds.
  void PredictSlot(const StochasticProcess& process,
                   const StreamHistory& history, int stream, Time t);

  Time horizon_;
  bool valid_ = false;
  Time now_ = 0;
  std::int64_t predictions_ = 0;
  /// [stream * horizon + t mod horizon].
  std::vector<DiscreteDistribution> pmfs_;
  std::vector<Slot> slots_;
  /// SJOIN_VALIDATE re-prediction scratch.
  DiscreteDistribution check_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORE_MEMO_H_
