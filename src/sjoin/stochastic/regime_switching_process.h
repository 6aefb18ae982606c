#ifndef SJOIN_STOCHASTIC_REGIME_SWITCHING_PROCESS_H_
#define SJOIN_STOCHASTIC_REGIME_SWITCHING_PROCESS_H_

#include <memory>
#include <vector>

#include "sjoin/stochastic/process.h"

/// \file
/// A deterministic-schedule regime process: time is divided into phases,
/// each with its own per-step pmf, and the schedule cycles.
///
/// This is the repo's skewed workload. With a hot Zipf phase alternating
/// against a calm wide phase it models bursty arrivals; with several Zipf
/// phases whose hot windows sit at different values it models a regime
/// switch that moves the hot set mid-run. Like SeasonalProcess the
/// per-step variables are mutually independent (the phase is a function
/// of t alone, never of the history), so HEEB's time-incremental mode
/// applies.

namespace sjoin {

/// Cycles through phases of (pmf, duration); X_t ~ pmf of the phase
/// containing t mod cycle_length.
class RegimeSwitchingProcess final : public StochasticProcess {
 public:
  struct Phase {
    DiscreteDistribution pmf;
    Time duration = 1;  ///< Steps this phase lasts; > 0.
  };

  /// At least one phase; every duration > 0, every pmf non-empty.
  explicit RegimeSwitchingProcess(std::vector<Phase> phases);

  DiscreteDistribution Predict(const StreamHistory& history,
                               Time t) const override {
    (void)history;
    return PhaseAt(t).pmf;
  }

  void PredictInto(const StreamHistory& history, Time t,
                   DiscreteDistribution* out) const override {
    (void)history;
    out->AssignShiftedCopy(PhaseAt(t).pmf, 0);
  }

  bool IsIndependent() const override { return true; }

  std::unique_ptr<StochasticProcess> Clone() const override {
    return std::make_unique<RegimeSwitchingProcess>(phases_);
  }

  /// The phase active at time t (cycling schedule).
  const Phase& PhaseAt(Time t) const;

  const std::vector<Phase>& phases() const { return phases_; }
  Time cycle_length() const { return cycle_length_; }

 private:
  std::vector<Phase> phases_;
  /// phase_start_[i] = sum of durations before phase i; back() = cycle.
  std::vector<Time> phase_start_;
  Time cycle_length_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_STOCHASTIC_REGIME_SWITCHING_PROCESS_H_
