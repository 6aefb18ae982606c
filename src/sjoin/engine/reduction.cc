#include "sjoin/engine/reduction.h"

#include <algorithm>
#include <unordered_map>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

namespace sjoin {

CachingReduction::CachingReduction(std::vector<Value> references)
    : references_(std::move(references)) {
  r_stream_.reserve(references_.size());
  s_stream_.reserve(references_.size());
  std::unordered_map<Value, std::int64_t> occurrences;
  auto intern = [this](Value v, std::int64_t occurrence) -> Value {
    auto [it, inserted] =
        encode_.try_emplace({v, occurrence},
                            static_cast<Value>(decode_.size()));
    if (inserted) decode_.push_back({v, occurrence});
    return it->second;
  };
  for (Value v : references_) {
    std::int64_t seen = occurrences[v]++;
    // The (seen+1)-th occurrence of v becomes (v, seen) in R' and
    // (v, seen + 1) in S'.
    r_stream_.push_back(intern(v, seen));
    s_stream_.push_back(intern(v, seen + 1));
  }
}

Value CachingReduction::Encode(Value v, std::int64_t occurrence) const {
  auto it = encode_.find({v, occurrence});
  SJOIN_CHECK_MSG(it != encode_.end(), "pair never occurs in the reduction");
  return it->second;
}

std::pair<Value, std::int64_t> CachingReduction::Decode(Value encoded) const {
  SJOIN_CHECK_GE(encoded, 0);
  SJOIN_CHECK_LT(encoded, static_cast<Value>(decode_.size()));
  return decode_[static_cast<std::size_t>(encoded)];
}

void ReductionJoinPolicy::Reset() {
  caching_policy_->Reset();
  reference_history_ = StreamHistory();
  cached_values_.clear();
  caching_carried_ = false;
}

void ReductionJoinPolicy::DecodeCached(const PolicyContext& ctx,
                                       std::vector<Value>* values) {
  cached_lanes_.Reserve(ctx.capacity);
  cached_lanes_.Reset();
  values->clear();
  for (std::size_t lane = 0; lane < ctx.cached->size(); ++lane) {
    const Tuple& tuple = (*ctx.cached)[lane];
    SJOIN_CHECK_MSG(tuple.side == StreamSide::kS,
                    "reasonable policy never caches reference tuples");
    const Value v = reduction_->Decode(tuple.value).first;
    SJOIN_CHECK_MSG(
        cached_lanes_.Insert(v, static_cast<LaneTable<Value>::Lane>(lane)),
        "multiple supply tuples cached for one value");
    values->push_back(v);
  }
}

void ReductionJoinPolicy::PrepareStep(const PolicyContext& ctx) {
  SJOIN_CHECK_EQ(ctx.arrivals->size(), 2u);
  // Identify the arrivals: exactly one R' and one S' tuple.
  const Tuple* r_arrival = nullptr;
  const Tuple* s_arrival = nullptr;
  for (const Tuple& tuple : *ctx.arrivals) {
    if (tuple.side == StreamSide::kR) r_arrival = &tuple;
    if (tuple.side == StreamSide::kS) s_arrival = &tuple;
  }
  SJOIN_CHECK(r_arrival != nullptr && s_arrival != nullptr);
  s_arrival_id_ = s_arrival->id;
  s_arrival_lane_ = static_cast<std::uint32_t>(
      ctx.cached->size() + (s_arrival - ctx.arrivals->data()));

  ref_value_ = reduction_->Decode(r_arrival->value).first;
  reference_history_.Append(ref_value_);

  // The cached supply tuples' original values. When the cache is the list
  // this policy returned last step, they are the values it carried from
  // then; otherwise every tuple is decoded.
  if (!ctx.carried() || cached_values_.size() != ctx.cached->size()) {
    DecodeCached(ctx, &cached_values_);
    caching_carried_ = false;
  } else if constexpr (kValidationEnabled) {
    DecodeCached(ctx, &next_values_);
    SJOIN_VALIDATE_MSG(next_values_ == cached_values_,
                       "the carried-cache flag is set, but the cache is not "
                       "the list the reduction returned");
  }
  const auto ref = std::find(cached_values_.begin(), cached_values_.end(),
                             ref_value_);
  ref_lane_ = ref == cached_values_.end()
                  ? kNoLane
                  : static_cast<std::uint32_t>(ref - cached_values_.begin());

  // A windowed hit additionally requires the cached supply tuple to still
  // be inside the window — the same predicate the engine's Phase-1 probe
  // applies, so Theorem 1's hits == results stays exact under windows.
  hit_ = ref_lane_ != kNoLane &&
         InWindow((*ctx.cached)[ref_lane_], ctx.now, ctx.window);

  // On a windowed miss the referenced value may still sit in the cache as
  // an expired entry. Expiry is monotone (only a hit refreshes, and an
  // expired entry can never hit), so that copy is dead weight; drop it
  // from the candidate set so the policy sees the referenced value once —
  // as the demand-fetched candidate — never as cached and referenced at
  // the same time.
  const bool drop = !hit_ && ref_lane_ != kNoLane;
  caching_ctx_.cached = &cached_values_;
  if (drop) {
    undropped_values_.assign(cached_values_.begin(), cached_values_.end());
    undropped_values_.erase(undropped_values_.begin() + ref_lane_);
    caching_ctx_.cached = &undropped_values_;
  }

  caching_ctx_.now = ctx.now;
  caching_ctx_.capacity = ctx.capacity;
  caching_ctx_.referenced = ref_value_;
  caching_ctx_.hit = hit_;
  caching_ctx_.history = &reference_history_;
  caching_ctx_.carried = caching_carried_ && !drop;
  caching_policy_->Observe(caching_ctx_);
}

std::vector<TupleId> ReductionJoinPolicy::SelectRetained(
    const PolicyContext& ctx) {
  PrepareStep(ctx);

  // The retained candidates as join lanes, and on a miss their values,
  // which the next step's cache carries.
  join_lanes_.clear();
  if (hit_) {
    // Cache state is unchanged in the caching problem; in the joining
    // problem the dead tuple s_(v,i) is swapped for fresh s_(v,i+1).
    for (std::uint32_t lane = 0; lane < cached_values_.size(); ++lane) {
      join_lanes_.push_back(lane == ref_lane_ ? s_arrival_lane_ : lane);
    }
  } else {
    const std::vector<Value>& candidates = *caching_ctx_.cached;
    const std::vector<std::uint32_t>* lanes = &caching_lanes_;
    if (scored_caching_ != nullptr) {
      lanes = &scored_caching_->SelectRetainedLanes(caching_ctx_);
    } else {
      // A policy that only returns values: find each one's lane. The
      // referenced value's is one past the cached ones.
      caching_lanes_.clear();
      for (Value v : caching_policy_->SelectRetained(caching_ctx_)) {
        const auto lane = static_cast<std::uint32_t>(
            v == ref_value_
                ? candidates.size()
                : std::find(candidates.begin(), candidates.end(), v) -
                      candidates.begin());
        SJOIN_CHECK_MSG(v == ref_value_ || lane < candidates.size(),
                        "policy retained a value that is not a candidate");
        caching_lanes_.push_back(lane);
      }
    }
    next_values_.clear();
    for (std::uint32_t lane : *lanes) {
      join_lanes_.push_back(JoinLane(lane));
      next_values_.push_back(lane < candidates.size() ? candidates[lane]
                                                      : ref_value_);
    }
    cached_values_.swap(next_values_);
    caching_carried_ = true;
  }

  std::vector<TupleId> retained_ids;
  retained_ids.reserve(join_lanes_.size());
  for (std::uint32_t lane : join_lanes_) {
    retained_ids.push_back(lane < ctx.cached->size() ? (*ctx.cached)[lane].id
                                                     : s_arrival_id_);
  }
  if (std::vector<std::uint32_t>* lanes = ctx.retained_lanes()) {
    lanes->assign(join_lanes_.begin(), join_lanes_.end());
  }
  return retained_ids;
}

}  // namespace sjoin
