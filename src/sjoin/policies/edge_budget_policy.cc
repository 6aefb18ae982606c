#include "sjoin/policies/edge_budget_policy.h"

#include <algorithm>
#include <cmath>

#include "sjoin/common/check.h"

namespace sjoin {

EdgeBudgetPolicy::EdgeBudgetPolicy(
    const std::vector<const StochasticProcess*>& processes,
    const StreamTopology* topology, Options options)
    : processes_(processes),
      topology_(topology),
      options_(options),
      lifetime_table_(LifetimeTable(ExpLifetime(options.alpha),
                                    options.horizon)),
      ring_(options.horizon) {
  SJOIN_CHECK(topology != nullptr);
  SJOIN_CHECK_EQ(static_cast<int>(processes_.size()),
                 topology_->num_streams());
  for (const StochasticProcess* process : processes_) {
    SJOIN_CHECK(process != nullptr);
  }
  SJOIN_CHECK_GE(options_.realloc_interval, 1);
  SJOIN_CHECK(options_.decay > 0.0 && options_.decay <= 1.0);
}

void EdgeBudgetPolicy::Reset() {
  const std::size_t edges = topology_->join_edges().size();
  decayed_mass_.assign(edges, 0.0);
  window_mass_.assign(edges, 0.0);
  budgets_.clear();  // Re-apportioned on the first step.
  realloc_checkpoints_ = 0;
  memo_.Reset(topology_->num_streams());
  ring_.Reset();
  edge_ranked_.assign(edges, {});
}

void EdgeBudgetPolicy::Apportion(std::size_t total,
                                 const std::vector<double>& weights,
                                 std::vector<std::size_t>* out) {
  const std::size_t m = weights.size();
  out->assign(m, 0);
  double sum = 0.0;
  for (double w : weights) sum += w;
  if (!(sum > 0.0)) {
    // Cold start / all-zero mass: equal split, remainder to low indexes.
    for (std::size_t e = 0; e < m; ++e) {
      (*out)[e] = total / m + (e < total % m ? 1 : 0);
    }
    return;
  }
  std::size_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    double quota = static_cast<double>(total) * weights[e] / sum;
    auto floor_quota = static_cast<std::size_t>(std::floor(quota));
    (*out)[e] = floor_quota;
    assigned += floor_quota;
    remainders.push_back({quota - std::floor(quota), e});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const std::pair<double, std::size_t>& a,
               const std::pair<double, std::size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; assigned < total && i < remainders.size(); ++i) {
    ++(*out)[remainders[i].second];
    ++assigned;
  }
}

double EdgeBudgetPolicy::PartnerSubtotal(int partner, Value value, Time now,
                                         Time max_dt, ScoreMemo* memo) {
  double subtotal = 0.0;
  if (memo != nullptr && memo->Lookup(partner, value, max_dt, &subtotal)) {
    return subtotal;
  }
  // Σ_Δt Pr{X^partner_{now+Δt} = value} L(Δt), walking the ring from
  // now+1. A Δt whose pmf does not cover `value` adds exactly +0.0, so it
  // is skipped.
  const PredictionRing::Slot* ring = ring_.slots(partner);
  const auto horizon = static_cast<std::size_t>(ring_.horizon());
  std::size_t r = ring_.RingIndex(now + 1);
  for (Time dt = 1; dt <= max_dt; ++dt, r = r + 1 == horizon ? 0 : r + 1) {
    const PredictionRing::Slot& slot = ring[r];
    if (value >= slot.lo && value <= slot.hi) {
      subtotal += slot.masses[value - slot.lo] * lifetime_table_[dt - 1];
    }
  }
  if (memo != nullptr) memo->Store(partner, value, max_dt, subtotal);
  return subtotal;
}

std::vector<TupleId> EdgeBudgetPolicy::SelectRetained(
    const EngineContext& ctx) {
  const auto& edges = topology_->join_edges();
  ring_.Advance(processes_, *ctx.histories, ctx.now);
  ScoreMemo* memo = options_.use_score_cache ? &memo_ : nullptr;
  if (memo != nullptr) memo->BeginStep();

  // Deterministic reallocation schedule: budgets change only at fixed
  // checkpoints (and once at the cold start), from decayed mass only.
  if (budgets_.empty()) {
    Apportion(ctx.capacity, decayed_mass_, &budgets_);
  }
  if (ctx.now > 0 && ctx.now % options_.realloc_interval == 0) {
    ++realloc_checkpoints_;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      decayed_mass_[e] =
          decayed_mass_[e] * options_.decay + window_mass_[e];
      window_mass_[e] = 0.0;
    }
    Apportion(ctx.capacity, decayed_mass_, &budgets_);
  }

  // Score every candidate on every incident edge. The per-edge score is
  // the binary HEEB term against the edge's opposite stream; the summed
  // score (for the spill ranking) adds the same subtotals in edge order.
  for (auto& ranked : edge_ranked_) ranked.clear();
  total_ranked_.clear();
  auto consider = [&](const StreamTuple& tuple) {
    Time max_dt = options_.horizon;
    if (ctx.window.has_value()) {
      max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
    }
    if (max_dt < 0) max_dt = 0;
    double total_score = 0.0;
    bool incident = false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      int partner;
      if (edges[e].first == tuple.stream) {
        partner = edges[e].second;
      } else if (edges[e].second == tuple.stream) {
        partner = edges[e].first;
      } else {
        continue;
      }
      incident = true;
      double h =
          PartnerSubtotal(partner, tuple.value, ctx.now, max_dt, memo);
      if (score_observer_) score_observer_(ctx, tuple, partner, h);
      window_mass_[e] += h;
      edge_ranked_[e].push_back({h, tuple.arrival, tuple.id});
      total_score += h;
    }
    if (incident) {
      total_ranked_.push_back({total_score, tuple.arrival, tuple.id});
    }
  };
  for (const StreamTuple& tuple : *ctx.cached) consider(tuple);
  for (const StreamTuple& tuple : *ctx.arrivals) consider(tuple);

  // Each edge claims its best incident tuples under its budget (edges in
  // index order; a tuple claimed by an earlier edge does not consume a
  // later edge's budget slot — it is simply skipped). Whatever capacity
  // the edges leave unused spills to the best remaining tuples by summed
  // score. Every ordering here is the strict (score, arrival, id) order
  // from rank_order.h, so the retained set is a total function of the
  // scores.
  const auto better = RankedTupleBetter;
  claimed_.Reserve(ctx.cached->size() + ctx.arrivals->size());
  claimed_.Reset();
  std::vector<TupleId> retained;
  retained.reserve(ctx.capacity);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    auto& ranked = edge_ranked_[e];
    std::sort(ranked.begin(), ranked.end(), better);
    std::size_t taken = 0;
    for (const RankedTuple& entry : ranked) {
      if (taken >= budgets_[e] || retained.size() >= ctx.capacity) break;
      if (!claimed_.Insert(entry.id, 0)) continue;
      retained.push_back(entry.id);
      ++taken;
    }
  }
  std::sort(total_ranked_.begin(), total_ranked_.end(), better);
  for (const RankedTuple& entry : total_ranked_) {
    if (retained.size() >= ctx.capacity) break;
    if (!claimed_.Insert(entry.id, 0)) continue;
    retained.push_back(entry.id);
  }
  return retained;
}

}  // namespace sjoin
