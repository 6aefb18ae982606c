#include "sjoin/multi/multi_heeb_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"

namespace sjoin {

MultiHeebPolicy::MultiHeebPolicy(
    const std::vector<const StochasticProcess*>& processes,
    const MultiJoinSimulator* simulator, Options options)
    : processes_(processes),
      simulator_(simulator),
      options_(options),
      lifetime_(options.alpha),
      ring_(options.horizon) {
  SJOIN_CHECK(simulator != nullptr);
  SJOIN_CHECK_EQ(static_cast<int>(processes_.size()),
                 simulator_->num_streams());
  for (const StochasticProcess* process : processes_) {
    SJOIN_CHECK(process != nullptr);
  }
}

void MultiHeebPolicy::Reset() {
  ring_.Reset();
  stats_ = ScoreMemo::Stats();
}

void MultiHeebPolicy::BuildKeys() {
  const std::size_t n = lane_values_.size();
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (lane_values_[a] != lane_values_[b]) {
                return lane_values_[a] < lane_values_[b];
              }
              return lane_max_dts_[a] < lane_max_dts_[b];
            });
  // Distinct keys in (value, max_dt) order, and each lane's key.
  key_values_.clear();
  key_max_dts_.clear();
  for (std::uint32_t lane : order_) {
    if (key_values_.empty() || key_values_.back() != lane_values_[lane] ||
        key_max_dts_.back() != lane_max_dts_[lane]) {
      key_values_.push_back(lane_values_[lane]);
      key_max_dts_.push_back(lane_max_dts_[lane]);
    }
    lane_keys_[lane] = static_cast<std::uint32_t>(key_values_.size() - 1);
  }
}

void MultiHeebPolicy::ScoreKeys(Time now) {
  const std::size_t keys = key_values_.size();
  const std::size_t num_streams = partner_joined_.size();
  key_sums_.assign(num_streams * keys, 0.0);
  if (keys == 0) return;
  const Value* values = key_values_.data();
  const Time* max_dts = key_max_dts_.data();
  const double* life = lifetime_table_.data();
  const Time last_dt = *std::max_element(key_max_dts_.begin(),
                                         key_max_dts_.end());
  for (std::size_t p = 0; p < num_streams; ++p) {
    // Every key is scored against every joined partner; a (partner, key)
    // pair no candidate reads costs a few adds and is never summed.
    if (!partner_joined_[p]) continue;
    double* sums = key_sums_.data() + p * keys;
    const PredictionRing::Slot* ring = ring_.slots(static_cast<int>(p));
    const auto horizon = static_cast<std::size_t>(ring_.horizon());
    // Δt ascending, so each key accumulates in the definitional order.
    std::size_t r = ring_.RingIndex(now + 1);
    for (Time dt = 1; dt <= last_dt;
         ++dt, r = r + 1 == horizon ? 0 : r + 1) {
      const PredictionRing::Slot& slot = ring[r];
      // Keys whose value lies in the pmf's support; an empty pmf
      // (hi < lo) selects none.
      const auto begin = static_cast<std::size_t>(
          std::lower_bound(values, values + keys, slot.lo) - values);
      const auto end = static_cast<std::size_t>(
          std::upper_bound(values + begin, values + keys, slot.hi) - values);
      const double l = life[dt - 1];
      for (std::size_t k = begin; k < end; ++k) {
        if (dt <= max_dts[k]) {
          sums[k] += slot.masses[values[k] - slot.lo] * l;
        }
      }
    }
  }
}

std::vector<TupleId> MultiHeebPolicy::SelectRetained(
    const MultiPolicyContext& ctx) {
  const int num_streams = simulator_->num_streams();
  // Built on first use rather than at construction, which callers pay per
  // policy even when it never runs.
  if (lifetime_table_.empty()) {
    lifetime_table_ = LifetimeTable(lifetime_, options_.horizon);
    partner_joined_.assign(static_cast<std::size_t>(num_streams), 0);
    for (int s = 0; s < num_streams; ++s) {
      for (int p : simulator_->PartnersOf(s)) {
        partner_joined_[static_cast<std::size_t>(p)] = 1;
      }
    }
  }
  ring_.Advance(processes_, *ctx.histories, ctx.now);

  // Lanes in scoring order: cached, then arrivals.
  const std::size_t n = ctx.cached->size() + ctx.arrivals->size();
  lane_values_.resize(n);
  lane_max_dts_.resize(n);
  lane_keys_.resize(n);
  auto lane = [&ctx](std::size_t i) -> const MultiTuple& {
    const std::size_t cached = ctx.cached->size();
    return i < cached ? (*ctx.cached)[i] : (*ctx.arrivals)[i - cached];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const MultiTuple& tuple = lane(i);
    Time max_dt = options_.horizon;
    if (ctx.window.has_value()) {
      max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
    }
    lane_values_[i] = tuple.value;
    lane_max_dts_[i] = max_dt;
  }
  BuildKeys();
  ScoreKeys(ctx.now);

  // Appendix C: a candidate's score sums its partners' subtotals in
  // PartnersOf order.
  const std::size_t keys = key_values_.size();
  const bool count = options_.use_score_cache;
  if (count) served_.assign(partner_joined_.size() * keys, 0);
  ranked_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const MultiTuple& tuple = lane(i);
    double h = 0.0;
    for (int p : simulator_->PartnersOf(tuple.stream)) {
      const std::size_t at =
          static_cast<std::size_t>(p) * keys + lane_keys_[i];
      h += key_sums_[at];
      if (count) {
        ++(served_[at] != 0 ? stats_.hits : stats_.misses);
        served_[at] = 1;
      }
    }
    if (score_observer_) score_observer_(tuple, h);
    ranked_.push_back({h, tuple.arrival, tuple.id});
  }
  const std::size_t keep = std::min(ctx.capacity, n);
  RankTopK(ranked_.data(), n, keep, RankedTupleBetter);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) retained.push_back(ranked_[i].id);
  return retained;
}

std::vector<TupleId> MultiRandomPolicy::SelectRetained(
    const MultiPolicyContext& ctx) {
  std::vector<RankedTuple> ranked;
  ranked.reserve(ctx.cached->size() + ctx.arrivals->size());
  for (const MultiTuple& tuple : *ctx.cached) {
    ranked.push_back({rng_.UniformReal(), tuple.arrival, tuple.id});
  }
  for (const MultiTuple& tuple : *ctx.arrivals) {
    ranked.push_back({rng_.UniformReal(), tuple.arrival, tuple.id});
  }
  return KeepBestRanked(std::move(ranked), ctx.capacity);
}

}  // namespace sjoin
