#ifndef SJOIN_ENGINE_PREDICTION_RING_H_
#define SJOIN_ENGINE_PREDICTION_RING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The shared ring of partner predictions that every HEEB policy scoring
/// against partner pmfs reads (DESIGN.md §2f): binary HEEB
/// (core/heeb_join_policy.h), MULTI-HEEB and EDGE-BUDGET.
///
/// A HEEB score reads partner predictions for now+1 .. now+horizon. For a
/// history-independent stream those do not change as now advances
/// (Corollaries 3–4), so the ring pays one new prediction per step instead
/// of `horizon`.

namespace sjoin {

/// Per-stream predictive pmfs for the times now+1 .. now+horizon, kept in
/// a ring of `horizon` slots per stream keyed by absolute time t mod
/// horizon, with each slot's support bounds cached next to it.
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

    /// True when v lies in the support range [lo, hi].
    bool Covers(Value v) const { return v >= lo && v <= hi; }
    /// Pr{X_t = v}: the double DiscreteDistribution::Prob returns.
    double Prob(Value v) const {
      return Covers(v) ? masses[static_cast<std::size_t>(v - lo)] : 0.0;
    }
  };

  /// `pmf` flattened into a Slot (valid while `pmf` is unchanged).
  static Slot SlotOf(const DiscreteDistribution& pmf) {
    return pmf.IsEmpty() ? Slot{}
                         : Slot{pmf.masses().data(), pmf.MinValue(),
                                pmf.MaxValue()};
  }

  /// Allocates nothing; the first Advance sizes the ring.
  explicit PredictionRing(Time horizon);

  /// Forgets every slot; the next Advance rebuilds the whole ring.
  void Reset() { valid_ = false; }

  /// Brings stream s's slots to X_{now+1} .. X_{now+horizon} of
  /// processes[s] given histories[s].
  void Advance(const std::vector<const StochasticProcess*>& processes,
               const std::vector<StreamHistory>& histories, Time now);
  /// The same, over borrowed histories: the binary policies pass their
  /// context's two StreamHistory pointers without copying them.
  void Advance(std::span<const StochasticProcess* const> processes,
               std::span<const StreamHistory* const> histories, Time now);

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

  /// Advance's body; history(s) returns stream s's history.
  template <typename HistoryOf>
  void AdvanceWith(std::span<const StochasticProcess* const> processes,
                   HistoryOf history, std::size_t num_histories, Time now);

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

#endif  // SJOIN_ENGINE_PREDICTION_RING_H_
