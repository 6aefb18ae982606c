#ifndef SJOIN_CORE_HEEB_JOIN_POLICY_H_
#define SJOIN_CORE_HEEB_JOIN_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/core/precompute.h"
#include "sjoin/engine/prediction_ring.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/random_walk_process.h"

/// \file
/// HEEB for the joining problem (Sections 4.3-4.4).
///
/// Scores every candidate tuple x by
///   H_x = Σ_{Δt>=1} Pr{X^partner_{t0+Δt} = v_x | x̄_t0} · L_x(Δt)
/// and discards the lowest-scored candidates. Several computation modes
/// implement the efficiency techniques of Section 4.4; all modes agree
/// with the direct definition (see heeb_policy_test).

namespace sjoin {

class ModelRepo;

/// HEEB replacement policy for two-stream joins.
class HeebJoinPolicy final : public ScoredPolicy {
 public:
  enum class Mode {
    /// Direct truncated sum each step. Works with any processes and any
    /// lifetime function; the universal fallback.
    kDirect,
    /// Corollary 3: H updates in O(1) per cached tuple per step. Requires
    /// L_exp and independent per-step stream variables; new arrivals are
    /// scored with the direct sum. Supports sliding windows: the window
    /// cap is a fixed absolute time (arrival + w), so the recurrence is
    /// unchanged — only the arrival-time sum is truncated (Section 7:
    /// "time-incremental computation requires very little modification").
    kTimeIncremental,
    /// Corollary 5 on top of Corollary 3: new arrivals inherit H from the
    /// cached tuple with the nearest value, shifted along the trend.
    /// Requires L_exp and LinearTrendProcess streams with equal non-zero
    /// integer slope.
    kValueIncremental,
    /// Theorem 5(2): both streams are random walks; h1 offset tables are
    /// precomputed at construction and scoring is a table lookup.
    kWalkTable,
  };

  struct Options {
    Mode mode = Mode::kDirect;
    /// L_exp parameter. Section 5 guidance: match the expected average
    /// lifetime of a cached tuple via ExpLifetime::AlphaForAverageLifetime.
    double alpha = 10.0;
    /// Truncation horizon for sums and tables; 0 derives it from alpha.
    Time horizon = 0;
    /// Optional custom lifetime function (kDirect only; not owned). When
    /// null, L_exp(alpha) is used.
    const LifetimeFn* lifetime = nullptr;
    /// Incremental modes only: recompute H directly after this many
    /// incremental updates. The Corollary 3 recurrence amplifies numeric
    /// error by e^{1/alpha} per step (an unstable fixed-point iteration),
    /// so long-cached tuples need periodic re-anchoring.
    Time refresh_interval = 64;
    /// kWalkTable: the repo the h1 tables are borrowed from (not owned);
    /// nullptr = ModelRepo::Global(). A custom `lifetime` is not
    /// content-addressable, so it forces a private build instead.
    ModelRepo* repo = nullptr;
  };

  /// Processes are not owned and must outlive the policy.
  HeebJoinPolicy(const StochasticProcess* r_process,
                 const StochasticProcess* s_process, Options options);

  void Reset() override;

  const char* name() const override { return "HEEB"; }

 protected:
  void BeginStep(const PolicyContext& ctx) override;
  double Score(const Tuple& tuple, std::uint32_t lane,
               const PolicyContext& ctx) override;
  void EndStep(const PolicyContext& ctx,
               std::span<const RankedTuple> ranked) override;

 private:
  const StochasticProcess* process(StreamSide side) const {
    return side == StreamSide::kR ? r_process_ : s_process_;
  }
  const StreamHistory* history(StreamSide side,
                               const PolicyContext& ctx) const {
    return side == StreamSide::kR ? ctx.history_r : ctx.history_s;
  }

  /// Direct truncated-sum H for a tuple, honoring the sliding window.
  double DirectScore(const Tuple& tuple, const PolicyContext& ctx);
  /// Σ_{Δt=1..max_dt} Pr{X^partner_{now+Δt} = v} L(Δt) for a tuple of
  /// `side`, read from the ring (which must be at `now`).
  double RingSum(StreamSide side, Value v, Time now, Time max_dt) const;

  /// Advances the prediction ring to this step if it is not already there.
  void EnsurePredictions(const PolicyContext& ctx);

  /// Incremental modes, once per step before any scoring: aligns the
  /// state with this step's candidate lanes, sets the elapsed gap, builds
  /// the shared per-(side, elapsed step) partner pmfs, and advances the
  /// ring if any entry will re-anchor.
  void PrepareStep(const PolicyContext& ctx);

  /// Probability that the partner of `side` produces `v` at time `t`,
  /// predicted into partner_pmf_ (no allocation once its buffer is sized).
  double PartnerProbAt(StreamSide side, Value v, Time t,
                       const PolicyContext& ctx);

  /// Corollary 5 transfer for a new arrival (kValueIncremental).
  double ValueIncrementalScore(const Tuple& tuple, const PolicyContext& ctx);

  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  Options options_;
  ExpLifetime exp_lifetime_;
  Time horizon_;

  // Partner predictive pmfs for now+1 .. now+horizon_, stream index
  // SideIndex; advanced at most once per step (predictions_time_).
  PredictionRing ring_;
  Time predictions_time_ = -1;
  // L(dt) for dt = 1..horizon_ (LifetimeTable), precomputed at
  // construction. DirectScore reads these instead of calling lifetime.At
  // per term; the values are the same doubles, so sums stay bit-identical.
  std::vector<double> lifetime_flat_;

  // Incremental modes: H of every cached tuple. The states sit in
  // slots_, whose positions never move while a tuple stays cached, and
  // lane_slot_ maps candidate lanes to slots. Between steps, lane_slot_[i]
  // is the slot of the i-th tuple in last step's returned list. The
  // engines cache exactly that list and say so (ctx.carried()); the
  // arrivals' new slots then extend it to every candidate lane (cached
  // tuples, then arrivals), which SelectRetained hands to Score and
  // EndStep.
  // A slot is kUnscored until its h exists: arrivals, and cached tuples the
  // policy has not seen, get a slot in PrepareStep but an h only when first
  // scored. Freed slots are reused by later arrivals.
  enum class SlotState : std::uint8_t { kFree, kUnscored, kScored };
  struct CachedState {
    double h = 0.0;
    TupleId id = 0;
    StreamSide side = StreamSide::kR;
    SlotState state = SlotState::kFree;
    Value value = 0;
    Time arrival = 0;
    Time updates_since_refresh = 0;
  };
  /// Advances one entry's H by PrepareStep's gap (Corollary 3), or
  /// re-anchors it with the direct sum once the refresh interval is due.
  void AdvanceState(CachedState* state, const PolicyContext& ctx);
  /// Fills an unscored slot's h: the direct sum (kTimeIncremental) or the
  /// Corollary 5 transfer (kValueIncremental).
  double ScoreNew(CachedState* state, const PolicyContext& ctx);
  /// A slot for a tuple without state, reusing a freed one when it can.
  std::uint32_t NewSlot(const Tuple& tuple);
  /// Maps ctx.cached onto slots when it is not the carried list.
  void Realign(const PolicyContext& ctx);
  /// The slot of candidate lane `lane`.
  CachedState& LaneState(std::size_t lane) { return slots_[lane_slot_[lane]]; }
  std::vector<CachedState> slots_;
  std::vector<std::uint32_t> lane_slot_;
  std::vector<std::uint32_t> free_slots_;
  // Slots no lane took this step (Realign only): a caller dropped their
  // tuples from the cache. They still advance and donate (Corollary 5)
  // until EndStep frees them.
  std::vector<std::uint32_t> dropped_slots_;
  Time last_step_time_ = -1;
  // Scratch reused across steps: next step's lane_slot_ (EndStep) or the
  // realigned one (Realign), and per-slot or per-lane placed marks.
  std::vector<std::uint32_t> carry_lanes_;
  std::vector<std::uint8_t> placed_;

  // Incremental advance: elapsed steps since the previous decision and the
  // shared per-(cached side, elapsed step) partner pmfs the Corollary 3
  // advance reads. Written in PrepareStep, read while the entries
  // advance.
  Time advance_gap_ = 0;
  double advance_e_ = 1.0;
  std::vector<DiscreteDistribution> advance_pmfs_[2];
  std::vector<PredictionRing::Slot> advance_slots_[2];
  // kValueIncremental: PartnerProbAt's scratch pmf, refilled per transfer
  // step.
  DiscreteDistribution partner_pmf_;

  // kWalkTable: per-side lookup tables (indexed by the side of the cached
  // tuple; the table is built from the partner's walk). Borrowed from the
  // ModelRepo — const-shared with every other policy on the same model.
  std::shared_ptr<const OffsetTable> walk_table_[2];
};

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_JOIN_POLICY_H_
