#ifndef SJOIN_ENGINE_REPLACEMENT_POLICY_H_
#define SJOIN_ENGINE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The replacement-decision interface for the joining problem.
///
/// Mirrors Section 3.3's definition of an algorithm A: inputs are K (the
/// cached tuples), N (the newly arrived tuples), H (the full arrival
/// history), and the policy's own statistical knowledge; the output is the
/// new cache content, a subset of K ∪ N.

namespace sjoin {

/// What an engine step hands a policy beyond K, N and H. Every field is a
/// shortcut the policy may ignore. Borrowed for the SelectRetained call.
struct EngineStep {
  /// True when the cached tuples are exactly the list this policy
  /// returned at the previous step, in that order, so state the policy
  /// carried in that order still lines up. The engines set it on every
  /// step but a session's first: their commit caches the retained ids in
  /// returned order.
  bool carried = false;
  /// Where a policy may report the lane of each id it returns, in
  /// returned order (lane i < cached->size() is the i-th cached tuple, the
  /// rest are the arrivals), so the commit need not find the ids again.
  /// Engine-owned and empty on entry, or null; leaving it empty is always
  /// valid.
  std::vector<std::uint32_t>* retained_lanes = nullptr;
};

/// Everything a policy may inspect when making the decision at one step.
struct PolicyContext {
  /// Time of the new arrivals.
  Time now = 0;
  /// Cache capacity k.
  std::size_t capacity = 0;
  /// Tuples currently cached (the K of Section 3.3). Size <= capacity.
  const std::vector<Tuple>* cached = nullptr;
  /// Tuples that just arrived at `now` (the N of Section 3.3).
  const std::vector<Tuple>* arrivals = nullptr;
  /// Observed values of streams R and S, inclusive of time `now`.
  const StreamHistory* history_r = nullptr;
  const StreamHistory* history_s = nullptr;
  /// Sliding-window length w (Section 7): a tuple that arrived at time a
  /// participates in joins only while now - a <= w. nullopt = regular join.
  std::optional<Time> window;
  /// The engine's hand-offs for this step, or null when the caller is not
  /// an engine. One pointer, so that a hand-off does not grow the
  /// context, which every BinaryPolicyAdapter holds.
  const EngineStep* step = nullptr;

  /// EngineStep::carried; false without an engine step.
  bool carried() const { return step != nullptr && step->carried; }
  /// EngineStep::retained_lanes; null without an engine step.
  std::vector<std::uint32_t>* retained_lanes() const {
    return step != nullptr ? step->retained_lanes : nullptr;
  }
};

/// A cache replacement policy for the joining problem.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Clears per-run state; called by the simulator before each run.
  virtual void Reset() {}

  /// Returns the ids of tuples to retain: a subset of the ids in
  /// ctx.cached ∪ ctx.arrivals with size <= ctx.capacity. The simulator
  /// validates the result.
  virtual std::vector<TupleId> SelectRetained(const PolicyContext& ctx) = 0;

  /// Human-readable policy name for experiment reports.
  virtual const char* name() const = 0;
};

/// True if `tuple` is still inside the sliding window at time `now`
/// (always true for regular join semantics).
inline bool InWindow(const Tuple& tuple, Time now,
                     const std::optional<Time>& window) {
  return !window.has_value() || now - tuple.arrival <= *window;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_REPLACEMENT_POLICY_H_
