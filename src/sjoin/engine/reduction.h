#ifndef SJOIN_ENGINE_REDUCTION_H_
#define SJOIN_ENGINE_REDUCTION_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/lane_table.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The caching → joining reduction of Section 2 / Theorem 1.
///
/// Given a reference sequence R, construct a "supply" stream S carrying the
/// joining database tuples, with join attribute values tweaked so that
/// neither stream contains duplicates: the i-th occurrence of value v
/// becomes the pair (v, i-1) in R and (v, i) in S. Running the joining
/// problem on (R', S') under a reasonable policy produces exactly as many
/// result tuples as the original caching problem produces hits.
///
/// This adapter is not just a theorem check: since the StreamEngine
/// unification, CacheSimulator itself runs through it, so every caching
/// policy executes on the same step loop as the joining policies.

namespace sjoin {

/// Builds and owns the transformed streams. Pairs (v, i) are interned into
/// fresh scalar Values so the generic joining machinery applies unchanged.
class CachingReduction {
 public:
  explicit CachingReduction(std::vector<Value> references);

  /// Encoded transformed streams, one entry per original reference.
  const std::vector<Value>& r_stream() const { return r_stream_; }
  const std::vector<Value>& s_stream() const { return s_stream_; }

  /// Original reference sequence.
  const std::vector<Value>& references() const { return references_; }

  /// Encoded id of pair (v, occurrence); aborts if the pair never occurs in
  /// either transformed stream.
  Value Encode(Value v, std::int64_t occurrence) const;

  /// Inverse of Encode.
  std::pair<Value, std::int64_t> Decode(Value encoded) const;

 private:
  std::vector<Value> references_;
  std::vector<Value> r_stream_;
  std::vector<Value> s_stream_;
  std::map<std::pair<Value, std::int64_t>, Value> encode_;
  std::vector<std::pair<Value, std::int64_t>> decode_;
};

/// Adapts a caching policy to the joining problem over the transformed
/// streams, following the "reasonable policy" discipline of Theorem 1:
/// reference-stream tuples are never cached, and the superseded supply
/// tuple s_(v,i) is replaced by s_(v,i+1) when the latter arrives.
///
/// Window-aware: under a sliding window, a cached supply tuple whose age
/// exceeds the window no longer serves hits (the cached copy has gone
/// stale, TTL semantics); the caching policy then sees a miss and decides
/// whether to refetch. A hit swaps in the fresh supply arrival, so every
/// hit refreshes the TTL — exactly the joining-side window semantics of
/// Section 7 carried through the reduction.
class ReductionJoinPolicy final : public ReplacementPolicy {
 public:
  /// Neither pointer is owned; both must outlive the policy.
  ReductionJoinPolicy(const CachingReduction* reduction,
                      CachingPolicy* caching_policy)
      : reduction_(reduction),
        caching_policy_(caching_policy),
        scored_caching_(dynamic_cast<ScoredCachingPolicy*>(caching_policy)) {}

  void Reset() override;

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override;

  const char* name() const override { return "REDUCED"; }

 private:
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

  /// SelectRetained's step prefix: decodes the arrivals, takes the cached
  /// supply tuples' original values (carried from the list this policy
  /// returned last step when ctx.cached is that list, decoded otherwise),
  /// determines hit/miss, drops the dead expired copy on a windowed miss,
  /// and notifies the caching policy — leaving the members below
  /// describing the step.
  void PrepareStep(const PolicyContext& ctx);

  /// Decodes ctx.cached's original values into `values`, checking the
  /// reasonable-policy rules (supply tuples only, one per value).
  void DecodeCached(const PolicyContext& ctx, std::vector<Value>* values);

  /// Join lane of a miss step's caching candidate `lane` (an index into
  /// caching_ctx_.cached, or one past it for the referenced value). A
  /// miss's ref_lane_ is the dropped copy's, which the caching list skips.
  std::uint32_t JoinLane(std::uint32_t lane) const {
    if (lane == caching_ctx_.cached->size()) return s_arrival_lane_;
    return lane < ref_lane_ ? lane : lane + 1;
  }

  const CachingReduction* reduction_;
  CachingPolicy* caching_policy_;
  /// The caching policy when it ranks by score: its retained lanes map
  /// straight to join lanes, with no value lookups.
  ScoredCachingPolicy* scored_caching_;
  StreamHistory reference_history_;

  /// Original value of each cached supply tuple, in cache order. After
  /// SelectRetained it holds the returned list's values, which the next
  /// step's cache is when ctx.carried() holds; Reset empties it.
  std::vector<Value> cached_values_;
  /// True when the caching policy's last returned list is cached_values_,
  /// so its carried state lines up (CachingContext::carried).
  bool caching_carried_ = false;

  // Step state filled by PrepareStep (reused across steps).
  CachingContext caching_ctx_;
  Value ref_value_ = 0;
  bool hit_ = false;
  TupleId s_arrival_id_ = 0;
  std::uint32_t s_arrival_lane_ = 0;
  /// Lane of the cached copy of the referenced value, or kNoLane.
  std::uint32_t ref_lane_ = kNoLane;
  /// The caching candidates without the dropped copy (windowed misses).
  std::vector<Value> undropped_values_;

  // Scratch: the retained join lanes, the caching lanes of a policy that
  // returns values, the retained list's values (also the decoded list a
  // validating build compares with the carried one), and original value
  // -> cached lane for DecodeCached's one-per-value check.
  std::vector<std::uint32_t> join_lanes_;
  std::vector<std::uint32_t> caching_lanes_;
  std::vector<Value> next_values_;
  LaneTable<Value> cached_lanes_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_REDUCTION_H_
