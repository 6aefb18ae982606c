#ifndef SJOIN_ENGINE_CACHING_POLICY_H_
#define SJOIN_ENGINE_CACHING_POLICY_H_

#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The replacement-decision interface for the caching problem (Section 2):
/// a reference stream joins a database relation; the cache holds database
/// tuples (at most one per join attribute value); the goal is to maximize
/// hits.

namespace sjoin {

/// Step context for a caching decision.
struct CachingContext {
  /// Time of the current reference.
  Time now = 0;
  /// Cache capacity.
  std::size_t capacity = 0;
  /// Join attribute values of the cached database tuples.
  const std::vector<Value>* cached = nullptr;
  /// The value referenced at `now`. On a miss the joining database tuple
  /// has been demand-fetched and is a candidate for caching.
  Value referenced = 0;
  /// True if `referenced` was in the cache (no replacement is required, but
  /// the policy is still notified so it can update recency/frequency state).
  bool hit = false;
  /// Observed reference stream, inclusive of time `now`.
  const StreamHistory* history = nullptr;
  /// True when `cached` is exactly the list this policy's SelectRetained
  /// returned last, in that order (hits in between keep the list). The
  /// Theorem 1 reduction sets it; any other caller leaves it false.
  bool carried = false;
};

/// A cache replacement policy for the caching problem.
class CachingPolicy {
 public:
  virtual ~CachingPolicy() = default;

  /// Clears per-run state.
  virtual void Reset() {}

  /// On a miss: returns the values to retain, a subset of
  /// ctx.cached ∪ {ctx.referenced} of size <= ctx.capacity (the fetched
  /// tuple may be left uncached). On a hit the returned set must equal the
  /// cached set; the default simulator only calls this on misses but still
  /// calls Observe() on every reference.
  virtual std::vector<Value> SelectRetained(const CachingContext& ctx) = 0;

  /// Notification of every reference (hit or miss) before any replacement
  /// decision; lets stateful policies (LRU, LFU) update bookkeeping.
  virtual void Observe(const CachingContext& ctx) { (void)ctx; }

  virtual const char* name() const = 0;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_CACHING_POLICY_H_
