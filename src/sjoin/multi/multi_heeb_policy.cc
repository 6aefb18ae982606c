#include "sjoin/multi/multi_heeb_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

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
  carried_order_.clear();
}

namespace {

constexpr std::uint32_t kNotRetained = ~std::uint32_t{0};

// Candidate lane i: cached tuples first, then arrivals.
const MultiTuple& LaneTuple(const MultiPolicyContext& ctx, std::size_t i) {
  const std::size_t cached = ctx.cached->size();
  return i < cached ? (*ctx.cached)[i] : (*ctx.arrivals)[i - cached];
}

}  // namespace

void MultiHeebPolicy::BuildKeys(const MultiPolicyContext& ctx) {
  const std::size_t cached = ctx.cached->size();
  const std::size_t n = cached + ctx.arrivals->size();
  keyed_.clear();
  auto push = [&](std::size_t i) {
    const MultiTuple& tuple = LaneTuple(ctx, i);
    Time max_dt = options_.horizon;
    if (ctx.window.has_value()) {
      max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
    }
    keyed_.push_back(
        {tuple.value, max_dt, tuple.id, static_cast<std::uint32_t>(i)});
  };
  // The cached lanes in last step's key order when the cache is last
  // step's returned list, else in lane order; the arrivals after them.
  if (ctx.carried() && carried_order_.size() == cached) {
    if constexpr (kValidationEnabled) {
      for (std::size_t i = 0; i < cached; ++i) {
        SJOIN_VALIDATE_MSG((*ctx.cached)[i].id == carried_ids_[i],
                           "the carried-cache flag is set, but the cache is "
                           "not the list MULTI-HEEB returned");
      }
    }
    for (std::uint32_t i : carried_order_) push(i);
  } else {
    for (std::size_t i = 0; i < cached; ++i) push(i);
  }
  for (std::size_t i = cached; i < n; ++i) push(i);
  RankTopK(keyed_.data(), n, n, [](const KeyedLane& a, const KeyedLane& b) {
    if (a.value != b.value) return a.value < b.value;
    if (a.max_dt != b.max_dt) return a.max_dt < b.max_dt;
    return a.id < b.id;
  });
  // Distinct keys in (value, max_dt) order, and each lane's key.
  key_values_.clear();
  key_max_dts_.clear();
  lane_keys_.resize(n);
  for (const KeyedLane& k : keyed_) {
    if (key_values_.empty() || key_values_.back() != k.value ||
        key_max_dts_.back() != k.max_dt) {
      key_values_.push_back(k.value);
      key_max_dts_.push_back(k.max_dt);
    }
    lane_keys_[k.lane] = static_cast<std::uint32_t>(key_values_.size() - 1);
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
  const Value first = values[0];
  const Value last = values[keys - 1];
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
      // A pmf whose support [lo, hi] misses [first, last] (or is empty,
      // hi < lo) adds nothing to any key.
      if (slot.hi < slot.lo || slot.hi < first || slot.lo > last) continue;
      // Keys whose value lies in the pmf's support.
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

void MultiHeebPolicy::CarryKeyOrder(const std::vector<TupleId>& retained) {
  // Scatter each retained lane's returned index, then read them back in
  // key order: next step's cached lane i is retained[i].
  retained_at_.assign(keyed_.size(), kNotRetained);
  for (std::size_t i = 0; i < retained.size(); ++i) {
    retained_at_[scored_[i].lane] = static_cast<std::uint32_t>(i);
  }
  carried_order_.clear();
  for (const KeyedLane& k : keyed_) {
    if (retained_at_[k.lane] != kNotRetained) {
      carried_order_.push_back(retained_at_[k.lane]);
    }
  }
  if constexpr (kValidationEnabled) carried_ids_ = retained;
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

  BuildKeys(ctx);
  ScoreKeys(ctx.now);

  // Appendix C: a candidate's score sums its partners' subtotals in
  // PartnersOf order. Key-sharing counts go to locals: served_'s byte
  // stores may alias stats_, which would otherwise be reloaded per read.
  const std::size_t n = ctx.cached->size() + ctx.arrivals->size();
  const std::size_t keys = key_values_.size();
  const bool count = options_.use_score_cache;
  if (count) served_.assign(partner_joined_.size() * keys, 0);
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  scored_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const MultiTuple& tuple = LaneTuple(ctx, i);
    const std::vector<int>& partners = simulator_->PartnersOf(tuple.stream);
    const std::size_t key = lane_keys_[i];
    double h = 0.0;
    for (int p : partners) {
      h += key_sums_[static_cast<std::size_t>(p) * keys + key];
    }
    if (count) {
      for (int p : partners) {
        unsigned char& served =
            served_[static_cast<std::size_t>(p) * keys + key];
        hits += served;
        misses += 1 - served;
        served = 1;
      }
    }
    if (score_observer_) score_observer_(tuple, h);
    scored_.push_back(
        {h, tuple.arrival, tuple.id, static_cast<std::uint32_t>(i)});
  }
  stats_.hits += hits;
  stats_.misses += misses;
  const std::size_t keep = std::min(ctx.capacity, n);
  RankTopK(scored_.data(), n, keep, RankedTupleBetter);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) retained.push_back(scored_[i].id);
  if (std::vector<std::uint32_t>* lanes = ctx.retained_lanes()) {
    for (std::size_t i = 0; i < keep; ++i) lanes->push_back(scored_[i].lane);
  }
  CarryKeyOrder(retained);
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
