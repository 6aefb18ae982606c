#include "sjoin/engine/score_memo.h"

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

namespace sjoin {

void ScoreMemo::Reset(int num_streams) {
  SJOIN_CHECK_GE(num_streams, 1);
  memo_.assign(static_cast<std::size_t>(num_streams), {});
  epoch_ = 0;
  stats_ = Stats();
}

void ScoreMemo::BeginStep() { ++epoch_; }

bool ScoreMemo::Lookup(int partner, Value value, Time max_dt, double* out) {
  auto& per_partner = memo_[static_cast<std::size_t>(partner)];
  auto it = per_partner.find(value);
  if (it == per_partner.end() || it->second.epoch != epoch_ ||
      it->second.max_dt != max_dt) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second.subtotal;
  return true;
}

void ScoreMemo::Store(int partner, Value value, Time max_dt,
                      double subtotal) {
  memo_[static_cast<std::size_t>(partner)][value] = {epoch_, max_dt,
                                                     subtotal};
}

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
  slots_[i] = pmf.IsEmpty() ? Slot{}
                            : Slot{pmf.masses().data(), pmf.MinValue(),
                                   pmf.MaxValue()};
}

void PredictionRing::Advance(
    const std::vector<const StochasticProcess*>& processes,
    const std::vector<StreamHistory>& histories, Time now) {
  const std::size_t n = processes.size();
  SJOIN_CHECK_EQ(histories.size(), n);
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
      PredictSlot(*processes[s], histories[s], stream, t);
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
        histories[static_cast<std::size_t>(stream)], t, &check_);
    const DiscreteDistribution& held = pmf(stream, t);
    SJOIN_VALIDATE_MSG(
        held.IsEmpty() == check_.IsEmpty() &&
            (held.IsEmpty() || (held.MinValue() == check_.MinValue() &&
                                held.masses() == check_.masses())),
        "prediction ring slot differs from a fresh PredictInto");
  }
}

}  // namespace sjoin
