#include "sjoin/core/heeb_join_policy.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/model_repo.h"

namespace sjoin {

HeebJoinPolicy::HeebJoinPolicy(const StochasticProcess* r_process,
                               const StochasticProcess* s_process,
                               Options options)
    : r_process_(r_process),
      s_process_(s_process),
      options_(options),
      exp_lifetime_(options.alpha),
      horizon_(options.horizon > 0 ? options.horizon
                                   : ExpHorizon(options.alpha)),
      ring_(horizon_) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
  if (options_.mode == Mode::kTimeIncremental ||
      options_.mode == Mode::kValueIncremental) {
    SJOIN_CHECK_MSG(r_process_->IsIndependent() &&
                        s_process_->IsIndependent(),
                    "incremental HEEB requires independent stream variables");
    SJOIN_CHECK_MSG(options_.lifetime == nullptr,
                    "incremental HEEB is defined for L_exp only");
  }
  if (options_.mode == Mode::kValueIncremental) {
    for (const StochasticProcess* p : {r_process_, s_process_}) {
      const auto* trend = dynamic_cast<const LinearTrendProcess*>(p);
      SJOIN_CHECK_MSG(trend != nullptr,
                      "value-incremental HEEB requires linear-trend streams");
      SJOIN_CHECK_MSG(trend->slope() == std::floor(trend->slope()) &&
                          trend->slope() != 0.0,
                      "value-incremental HEEB requires a non-zero integer "
                      "slope");
    }
  }
  if (options_.mode == Mode::kWalkTable) {
    ModelRepo& repo =
        options_.repo != nullptr ? *options_.repo : ModelRepo::Global();
    for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
      const auto* walk =
          dynamic_cast<const RandomWalkProcess*>(process(Partner(side)));
      SJOIN_CHECK_MSG(walk != nullptr,
                      "walk-table HEEB requires random-walk streams");
      if (options_.lifetime == nullptr) {
        walk_table_[SideIndex(side)] =
            repo.WalkJoinHeebTable(*walk, options_.alpha, horizon_);
      } else {
        // A caller-supplied lifetime has no content-addressable identity;
        // build privately rather than risk key collisions in the repo.
        walk_table_[SideIndex(side)] = std::make_shared<const OffsetTable>(
            PrecomputeWalkJoinHeeb(*walk, *options_.lifetime, horizon_));
      }
    }
  }
  lifetime_flat_ = LifetimeTable(
      options_.lifetime != nullptr
          ? *options_.lifetime
          : static_cast<const LifetimeFn&>(exp_lifetime_),
      horizon_);
}

void HeebJoinPolicy::Reset() {
  ring_.Reset();
  predictions_time_ = -1;
  slots_.clear();
  lane_slot_.clear();
  free_slots_.clear();
  dropped_slots_.clear();
  last_step_time_ = -1;
}

void HeebJoinPolicy::BeginStep(const PolicyContext& ctx) {
  if (options_.mode == Mode::kWalkTable) return;  // Pure lookups.
  if (options_.mode == Mode::kDirect) {
    EnsurePredictions(ctx);
    return;
  }
  // Corollary 3 eagerly: every cached H advanced to now. The sweep walks
  // the flat slot array in storage order; each entry's update is
  // independent, so the order only affects memory access, not results.
  PrepareStep(ctx);
  for (CachedState& state : slots_) {
    if (state.state == SlotState::kScored) AdvanceState(&state, ctx);
  }
}

void HeebJoinPolicy::PrepareStep(const PolicyContext& ctx) {
  SJOIN_CHECK_MSG(!ctx.window.has_value() ||
                      options_.mode == Mode::kTimeIncremental,
                  "value-incremental HEEB does not support sliding "
                  "windows; use kDirect or kTimeIncremental");
  // kTimeIncremental scores arrivals with direct sums; kValueIncremental
  // advances the ring only when a transfer or re-anchor needs it.
  if (options_.mode == Mode::kTimeIncremental) EnsurePredictions(ctx);

  // Map the candidate lanes to slots. When ctx.cached is last step's
  // returned list, the carried lane_slot_ already does; otherwise (a
  // caller trimmed, reordered or preloaded the cache) Realign maps it
  // afresh.
  const std::vector<Tuple>& cached = *ctx.cached;
  if (ctx.carried() && lane_slot_.size() == cached.size()) {
    if constexpr (kValidationEnabled) {
      for (std::size_t i = 0; i < cached.size(); ++i) {
        SJOIN_VALIDATE_MSG(LaneState(i).id == cached[i].id,
                           "the carried-cache flag is set, but the cache is "
                           "not the list incremental HEEB returned");
      }
    }
  } else {
    Realign(ctx);
  }
  // Grow the slots by doubling, but stop at what a full cache uses
  // (capacity + arrivals), so a full cache keeps no spare slots.
  const std::size_t arrivals = ctx.arrivals->size();
  if (slots_.size() + arrivals > slots_.capacity()) {
    slots_.reserve(std::max(slots_.size() + arrivals,
                            std::min(2 * slots_.capacity(),
                                     ctx.capacity + arrivals)));
  }
  for (const Tuple& t : *ctx.arrivals) lane_slot_.push_back(NewSlot(t));

  advance_gap_ = last_step_time_ >= 0 ? ctx.now - last_step_time_ : 0;
  advance_e_ = std::exp(1.0 / options_.alpha);
  if (advance_gap_ > 0) {
    // Entries crossing the refresh interval re-anchor with DirectScore,
    // which reads this step's predictions; advance the ring up front.
    for (const CachedState& state : slots_) {
      if (state.state == SlotState::kScored &&
          state.updates_since_refresh + advance_gap_ >=
              options_.refresh_interval) {
        EnsurePredictions(ctx);
        break;
      }
    }
    // One partner pmf per (cached side, elapsed step), shared by every
    // entry of that side.
    for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
      StreamSide partner = Partner(side);
      auto& pmfs = advance_pmfs_[SideIndex(side)];
      auto& slots = advance_slots_[SideIndex(side)];
      pmfs.resize(static_cast<std::size_t>(advance_gap_));
      slots.resize(pmfs.size());
      for (std::size_t k = 0; k < pmfs.size(); ++k) {
        process(partner)->PredictInto(*history(partner, ctx),
                                      last_step_time_ + 1 +
                                          static_cast<Time>(k),
                                      &pmfs[k]);
        slots[k] = PredictionRing::SlotOf(pmfs[k]);
      }
    }
  }
  last_step_time_ = ctx.now;
}

void HeebJoinPolicy::AdvanceState(CachedState* state,
                                  const PolicyContext& ctx) {
  if (advance_gap_ == 0) return;
  state->updates_since_refresh += advance_gap_;
  if (state->updates_since_refresh >= options_.refresh_interval) {
    // Re-anchor: the recurrence is an unstable iteration whose error grows
    // by e^{1/alpha} per step.
    SJOIN_CHECK_EQ(predictions_time_, ctx.now);  // Advanced in PrepareStep.
    Tuple proxy{0, state->side, state->value, state->arrival};
    state->h = DirectScore(proxy, ctx);
    state->updates_since_refresh = 0;
    return;
  }
  // H_t = e^{1/alpha} H_{t-1} - Pr{X^partner_t = v}, once per elapsed step.
  const PredictionRing::Slot* slots =
      advance_slots_[SideIndex(state->side)].data();
  for (Time step = 0; step < advance_gap_; ++step) {
    const double p = slots[step].Prob(state->value);
    state->h = advance_e_ * state->h - p;
    if (state->h < 0.0) state->h = 0.0;  // Guard truncation drift.
  }
}

double HeebJoinPolicy::ScoreNew(CachedState* state,
                                const PolicyContext& ctx) {
  const Tuple tuple{state->id, state->side, state->value, state->arrival};
  // Still unscored, so ValueIncrementalScore's donor scan skips this slot.
  const double h = options_.mode == Mode::kTimeIncremental
                       ? DirectScore(tuple, ctx)
                       : ValueIncrementalScore(tuple, ctx);
  state->h = h;
  state->state = SlotState::kScored;
  return h;
}

std::uint32_t HeebJoinPolicy::NewSlot(const Tuple& tuple) {
  const CachedState fresh{0.0,         tuple.id,
                          tuple.side,  SlotState::kUnscored,
                          tuple.value, tuple.arrival,
                          0};
  if (free_slots_.empty()) {
    slots_.push_back(fresh);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = fresh;
  return slot;
}

void HeebJoinPolicy::Realign(const PolicyContext& ctx) {
  // Each cached lane takes its tuple's slot, or a new unscored one. The
  // slots no lane takes stay live until EndStep frees them.
  dropped_slots_.clear();
  placed_.assign(slots_.size(), 0);
  carry_lanes_.clear();
  auto holds = [&](std::uint32_t slot, TupleId id) {
    return slots_[slot].state != SlotState::kFree && slots_[slot].id == id;
  };
  for (const Tuple& t : *ctx.cached) {
    std::uint32_t slot = 0;
    while (slot < slots_.size() && !holds(slot, t.id)) ++slot;
    if (slot == slots_.size()) {
      slot = NewSlot(t);
      placed_.resize(slots_.size(), 0);
    }
    placed_[slot] = 1;
    carry_lanes_.push_back(slot);
  }
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].state != SlotState::kFree && placed_[slot] == 0) {
      dropped_slots_.push_back(slot);
    }
  }
  lane_slot_.swap(carry_lanes_);
}

double HeebJoinPolicy::PartnerProbAt(StreamSide side, Value v, Time t,
                                     const PolicyContext& ctx) {
  StreamSide partner = Partner(side);
  process(partner)->PredictInto(*history(partner, ctx), t, &partner_pmf_);
  return partner_pmf_.Prob(v);
}

void HeebJoinPolicy::EnsurePredictions(const PolicyContext& ctx) {
  if (predictions_time_ == ctx.now) return;
  // Stream index SideIndex: R = 0, S = 1. Independent streams predict only
  // the times that newly enter the horizon.
  const StochasticProcess* const processes[2] = {r_process_, s_process_};
  const StreamHistory* const histories[2] = {ctx.history_r, ctx.history_s};
  ring_.Advance(processes, histories, ctx.now);
  predictions_time_ = ctx.now;
}

double HeebJoinPolicy::RingSum(StreamSide side, Value v, Time now,
                               Time max_dt) const {
  const PredictionRing::Slot* ring =
      ring_.slots(SideIndex(Partner(side)));
  const auto horizon = static_cast<std::size_t>(horizon_);
  // Δt ascending from X_{now+1}'s ring slot, adding Prob(v) · L(Δt) only
  // where v is in the support: elsewhere the term is +0.0, and adding it
  // leaves h (never -0.0) unchanged.
  double h = 0.0;
  std::size_t r = ring_.RingIndex(now + 1);
  for (Time dt = 1; dt <= max_dt; ++dt, r = r + 1 == horizon ? 0 : r + 1) {
    const PredictionRing::Slot& slot = ring[r];
    if (slot.Covers(v)) {
      h += slot.masses[static_cast<std::size_t>(v - slot.lo)] *
           lifetime_flat_[static_cast<std::size_t>(dt - 1)];
    }
  }
  return h;
}

double HeebJoinPolicy::DirectScore(const Tuple& tuple,
                                   const PolicyContext& ctx) {
  EnsurePredictions(ctx);
  Time max_dt = horizon_;
  if (ctx.window.has_value()) {
    // Section 7: contributions stop once the tuple leaves the window.
    Time remaining = tuple.arrival + *ctx.window - ctx.now;
    if (remaining < max_dt) max_dt = remaining;
  }
  return RingSum(tuple.side, tuple.value, ctx.now, max_dt);
}

double HeebJoinPolicy::ValueIncrementalScore(const Tuple& tuple,
                                             const PolicyContext& ctx) {
  // Find the scored tuple of the same side with the nearest value. The
  // argmin tie-breaks by (distance, value, id), so ties do not resolve by
  // slot order.
  const CachedState* nearest = nullptr;
  Value best_distance = 0;
  for (const CachedState& state : slots_) {
    if (state.state != SlotState::kScored || state.side != tuple.side) {
      continue;
    }
    Value distance = std::llabs(state.value - tuple.value);
    if (nearest == nullptr || distance < best_distance ||
        (distance == best_distance &&
         (state.value < nearest->value ||
          (state.value == nearest->value && state.id < nearest->id)))) {
      nearest = &state;
      best_distance = distance;
    }
  }
  if (nearest == nullptr) return DirectScore(tuple, ctx);

  const auto* partner_trend = dynamic_cast<const LinearTrendProcess*>(
      process(Partner(tuple.side)));
  Value slope = static_cast<Value>(partner_trend->slope());
  Value diff = nearest->value - tuple.value;
  if (diff % slope != 0) return DirectScore(tuple, ctx);

  // Corollary 5: H_{v,t0} = H_{v',t'} with t' = t0 + (v' - v)/a. Walk the
  // nearest tuple's H from t0 to t' with (inverse) Corollary 3 updates.
  Time t_prime = ctx.now + diff / slope;
  double h = nearest->h;
  double e = std::exp(1.0 / options_.alpha);
  if (t_prime > ctx.now) {
    for (Time t = ctx.now + 1; t <= t_prime; ++t) {
      h = e * h - PartnerProbAt(tuple.side, nearest->value, t, ctx);
      if (h < 0.0) h = 0.0;
    }
  } else {
    for (Time t = ctx.now; t > t_prime; --t) {
      h = (h + PartnerProbAt(tuple.side, nearest->value, t, ctx)) / e;
    }
  }
  return h;
}

double HeebJoinPolicy::Score(const Tuple& tuple, std::uint32_t lane,
                             const PolicyContext& ctx) {
  const bool out_of_window =
      ctx.window.has_value() && !InWindow(tuple, ctx.now, ctx.window);
  switch (options_.mode) {
    case Mode::kDirect:
      return out_of_window ? 0.0 : DirectScore(tuple, ctx);
    case Mode::kWalkTable: {
      if (out_of_window) return 0.0;
      const StreamHistory* partner_history =
          history(Partner(tuple.side), ctx);
      const auto* walk = static_cast<const RandomWalkProcess*>(
          process(Partner(tuple.side)));
      Value last = partner_history->empty() ? walk->initial_value()
                                            : partner_history->back();
      return walk_table_[SideIndex(tuple.side)]->At(tuple.value - last);
    }
    case Mode::kTimeIncremental:
    case Mode::kValueIncremental: {
      if (out_of_window) return 0.0;
      CachedState& state = LaneState(lane);
      SJOIN_VALIDATE_MSG(state.id == tuple.id,
                         "incremental HEEB scored a lane of another tuple");
      return state.state == SlotState::kScored ? state.h
                                               : ScoreNew(&state, ctx);
    }
  }
  return 0.0;
}

void HeebJoinPolicy::EndStep(const PolicyContext& ctx,
                             std::span<const RankedTuple> ranked) {
  (void)ctx;
  if (options_.mode != Mode::kTimeIncremental &&
      options_.mode != Mode::kValueIncremental) {
    return;
  }
  // Next step's lane i is ranked[i]'s: gather its slot. The lanes nobody
  // retained were evicted, and the slots no lane took were dropped by the
  // caller; both are freed.
  const std::size_t lanes = lane_slot_.size();
  placed_.assign(lanes, 0);
  carry_lanes_.clear();
  for (const RankedTuple& kept : ranked) {
    placed_[kept.lane] = 1;
    carry_lanes_.push_back(lane_slot_[kept.lane]);
  }
  auto free_slot = [&](std::uint32_t slot) {
    slots_[slot].state = SlotState::kFree;
    free_slots_.push_back(slot);
  };
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (placed_[lane] == 0) free_slot(lane_slot_[lane]);
  }
  for (std::uint32_t slot : dropped_slots_) free_slot(slot);
  dropped_slots_.clear();
  lane_slot_.swap(carry_lanes_);
}

}  // namespace sjoin
