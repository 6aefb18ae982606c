#include "sjoin/engine/prediction_ring.h"

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

namespace sjoin {

PredictionRing::PredictionRing(Time horizon) : horizon_(horizon) {
  SJOIN_CHECK_GE(horizon, 1);
}

void PredictionRing::PredictSlot(const StochasticProcess& process,
                                 const StreamHistory& history, int stream,
                                 Time t) {
  const std::size_t i = Index(stream, t);
  DiscreteDistribution& pmf = pmfs_[i];
  process.PredictInto(history, t, &pmf);
  ++predictions_;
  slots_[i] = SlotOf(pmf);
}

template <typename HistoryOf>
void PredictionRing::AdvanceWith(
    std::span<const StochasticProcess* const> processes, HistoryOf history,
    std::size_t num_histories, Time now) {
  const std::size_t n = processes.size();
  SJOIN_CHECK_EQ(num_histories, n);
  const std::size_t size = n * static_cast<std::size_t>(horizon_);
  const bool rebuild = !valid_ || pmfs_.size() != size || now < now_ ||
                       now - now_ >= horizon_;
  if (pmfs_.size() != size) {
    pmfs_.resize(size);
    slots_.resize(size);
  }
  for (std::size_t s = 0; s < n; ++s) {
    const int stream = static_cast<int>(s);
    // An independent stream keeps X_{now_+1} .. X_{now_+horizon}; only
    // the times past the old horizon end are new.
    const Time first = rebuild || !processes[s]->IsIndependent()
                           ? now + 1
                           : now_ + horizon_ + 1;
    for (Time t = first; t <= now + horizon_; ++t) {
      PredictSlot(*processes[s], history(s), stream, t);
    }
  }
  valid_ = true;
  now_ = now;
  if constexpr (kValidationEnabled) {
    if (n == 0) return;
    // One re-predicted slot per step, rotating over streams and offsets.
    const int stream = static_cast<int>(static_cast<std::size_t>(now) % n);
    const Time t = now + 1 + static_cast<Time>(RingIndex(now));
    processes[static_cast<std::size_t>(stream)]->PredictInto(
        history(static_cast<std::size_t>(stream)), t, &check_);
    const DiscreteDistribution& held = pmf(stream, t);
    SJOIN_VALIDATE_MSG(
        held.IsEmpty() == check_.IsEmpty() &&
            (held.IsEmpty() || (held.MinValue() == check_.MinValue() &&
                                held.masses() == check_.masses())),
        "prediction ring slot differs from a fresh PredictInto");
  }
}

void PredictionRing::Advance(
    const std::vector<const StochasticProcess*>& processes,
    const std::vector<StreamHistory>& histories, Time now) {
  AdvanceWith(
      processes, [&](std::size_t s) -> const StreamHistory& {
        return histories[s];
      },
      histories.size(), now);
}

void PredictionRing::Advance(
    std::span<const StochasticProcess* const> processes,
    std::span<const StreamHistory* const> histories, Time now) {
  AdvanceWith(
      processes, [&](std::size_t s) -> const StreamHistory& {
        return *histories[s];
      },
      histories.size(), now);
}

}  // namespace sjoin
