#ifndef SJOIN_MULTI_MULTI_HEEB_POLICY_H_
#define SJOIN_MULTI_MULTI_HEEB_POLICY_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/prediction_ring.h"
#include "sjoin/engine/score_memo.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/stochastic/process.h"

/// \file
/// HEEB for multiple binary joins (Appendix C): a candidate tuple's
/// expected benefit is the *sum over its partner streams* of the binary
/// HEEB terms,
///   H_x = Σ_{p ∈ partners(stream(x))} Σ_{Δt} Pr{X^p_{t0+Δt} = v_x} L(Δt).
///
/// A step pays only for what changed since the last one:
///
/// * Partner predictions live in a PredictionRing (engine/prediction_ring.h):
///   history-independent streams predict one new time per step, dependent
///   streams re-predict the horizon.
/// * Scoring is one batched, support-bounded kernel. A partner's inner sum
///   depends only on the key (value, max Δt), where max Δt is the horizon
///   cut by the candidate's remaining window. The candidates are ranked by
///   key and the distinct keys kept. Each joined partner walks Δt in
///   ascending order, skips a slot whose support [lo, hi] misses the key
///   span, binary-searches the keys inside [lo, hi] and adds
///   masses[v − lo]·L(Δt) to those with Δt ≤ max Δt, so each (partner,
///   key) subtotal is computed once. A candidate's score is then the sum
///   of its partners' subtotals in PartnersOf order.
/// * The key ranking is carried from step to step. A cached tuple's value
///   never changes and its max Δt keeps its order relative to the other
///   cached tuples', so last step's key order over the retained tuples is
///   this step's, up to ties that the shrinking window splits. When
///   ctx.cached is exactly last step's returned list (checked id by id),
///   the cached lanes start in that order with the arrivals appended, and
///   RankTopK (engine/ranked_select.h) finishes the order by insertion;
///   otherwise (the first step, Reset, or a cache that a caller trimmed
///   or reordered) they start in lane order and RankTopK's own fallback
///   sorts them. The order (value, max Δt, id) is strict, so the ranked
///   keys do not depend on where the lanes started.
/// * Selection is RankTopK over the cached run, which the engine keeps in
///   last step's rank order, plus the arrivals.
///
/// Exactness: each subtotal adds the same products in the same Δt order as
/// the definitional loop Σ_Δt Prob(v)·L(Δt), minus the terms whose
/// probability is outside the pmf's support — those add exactly +0.0, the
/// argument CachingHeebBatch (core/heeb.h) documents — so every score is
/// bit-identical to a from-scratch evaluation (testing/naive_multi_heeb.h
/// is the oracle).

namespace sjoin {

/// Direct-mode multi-join HEEB.
class MultiHeebPolicy final : public MultiReplacementPolicy {
 public:
  struct Options {
    double alpha = 10.0;
    Time horizon = 100;
    /// The kernel always computes each (partner, value, max Δt) subtotal
    /// once; this only turns on score_cache_stats() accounting.
    bool use_score_cache = false;
  };

  /// `processes[s]` models stream s; not owned. `simulator` supplies the
  /// join graph (PartnersOf); not owned.
  MultiHeebPolicy(const std::vector<const StochasticProcess*>& processes,
                  const MultiJoinSimulator* simulator, Options options);

  void Reset() override;

  std::vector<TupleId> SelectRetained(const MultiPolicyContext& ctx) override;

  const char* name() const override { return "MULTI-HEEB"; }

  /// Key-sharing accounting when Options::use_score_cache is set (zero
  /// otherwise): misses are the distinct (partner, key) subtotals the
  /// candidates read, hits the (candidate, partner) lanes served by a
  /// subtotal another lane already read.
  const ScoreMemo::Stats& score_cache_stats() const { return stats_; }

  /// Verification hook mirroring ScoredPolicy::set_score_observer: when
  /// set, receives every candidate's score as SelectRetained computes it,
  /// cached tuples first, then arrivals.
  using ScoreObserver = std::function<void(const MultiTuple&, double)>;
  void set_score_observer(ScoreObserver observer) {
    score_observer_ = std::move(observer);
  }

 private:
  /// One lane's key under the strict order (value, max Δt, id).
  struct KeyedLane {
    Value value = 0;
    Time max_dt = 0;
    TupleId id = 0;
    std::uint32_t lane = 0;
  };
  /// Fills keyed_ with this step's lanes in key order, and the distinct
  /// keys and each lane's key.
  void BuildKeys(const MultiPolicyContext& ctx);
  /// key_sums_[p * keys + k] = partner p's subtotal for key k.
  void ScoreKeys(Time now);
  /// Remembers the retained lanes' key order and ids for the next step.
  void CarryKeyOrder(const std::vector<TupleId>& retained);

  std::vector<const StochasticProcess*> processes_;
  const MultiJoinSimulator* simulator_;
  Options options_;
  ExpLifetime lifetime_;
  // lifetime_.At(dt) for dt = 1..horizon (LifetimeTable); filled by the
  // first SelectRetained.
  std::vector<double> lifetime_table_;
  PredictionRing ring_;
  ScoreMemo::Stats stats_;
  ScoreObserver score_observer_;
  // [p] = 1 when some stream joins with p; filled by the first
  // SelectRetained.
  std::vector<unsigned char> partner_joined_;

  // Per-step scratch, reused so the steady state allocates nothing.
  // Lanes are the candidates in scoring order (cached, then arrivals).
  std::vector<KeyedLane> keyed_;
  std::vector<std::uint32_t> lane_keys_;
  // Distinct (value, max_dt) keys, sorted.
  std::vector<Value> key_values_;
  std::vector<Time> key_max_dts_;
  std::vector<double> key_sums_;
  // score_cache_stats() bookkeeping: (partner, key) pairs already served.
  std::vector<unsigned char> served_;
  std::vector<RankedTuple> scored_;
  // [lane] = the lane's index in the returned list, or kNotRetained.
  std::vector<std::uint32_t> retained_at_;

  // Carried from the last step: the indices into the returned list in key
  // order (next step's cached lanes, when ctx.carried() says the cache is
  // that list). Empty before the first step and after Reset. A validating
  // build also keeps the returned ids, to check the flag against.
  std::vector<std::uint32_t> carried_order_;
  std::vector<TupleId> carried_ids_;
};

/// Random eviction baseline for the multi-join problem.
class MultiRandomPolicy final : public MultiReplacementPolicy {
 public:
  explicit MultiRandomPolicy(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  void Reset() override { rng_ = Rng(seed_); }

  std::vector<TupleId> SelectRetained(const MultiPolicyContext& ctx) override;

  const char* name() const override { return "MULTI-RAND"; }

 private:
  Rng rng_;
  std::uint64_t seed_;
};

}  // namespace sjoin

#endif  // SJOIN_MULTI_MULTI_HEEB_POLICY_H_
