#include "sjoin/engine/reduction.h"

#include <algorithm>
#include <unordered_map>

#include "sjoin/common/check.h"

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

  auto [ref_value, ref_occurrence] = reduction_->Decode(r_arrival->value);
  (void)ref_occurrence;
  ref_value_ = ref_value;
  reference_history_.Append(ref_value_);

  // Decode the cached supply tuples: original value -> cached lane. A
  // reasonable policy keeps at most one supply tuple per original value.
  cached_ = ctx.cached;
  cached_lanes_.Reserve(ctx.capacity);
  cached_lanes_.Reset();
  cached_values_.clear();
  cached_values_.reserve(ctx.cached->size());
  for (std::size_t lane = 0; lane < ctx.cached->size(); ++lane) {
    const Tuple& tuple = (*ctx.cached)[lane];
    SJOIN_CHECK_MSG(tuple.side == StreamSide::kS,
                    "reasonable policy never caches reference tuples");
    auto [v, occurrence] = reduction_->Decode(tuple.value);
    (void)occurrence;
    SJOIN_CHECK_MSG(
        cached_lanes_.Insert(v, static_cast<LaneTable<Value>::Lane>(lane)),
        "multiple supply tuples cached for one value");
    cached_values_.push_back(v);
  }

  // A windowed hit additionally requires the cached supply tuple to still
  // be inside the window — the same predicate the engine's Phase-1 probe
  // applies, so Theorem 1's hits == results stays exact under windows.
  const Tuple* cached_ref = CachedFor(ref_value_);
  hit_ = cached_ref != nullptr && InWindow(*cached_ref, ctx.now, ctx.window);

  // On a windowed miss the referenced value may still sit in the cache as
  // an expired entry. Expiry is monotone (only a hit refreshes, and an
  // expired entry can never hit), so that copy is dead weight; drop it
  // from the candidate set so the policy sees the referenced value once —
  // as the demand-fetched candidate — never as cached and referenced at
  // the same time.
  dropped_id_ = -1;
  if (!hit_ && cached_ref != nullptr) {
    dropped_id_ = cached_ref->id;
    cached_values_.erase(std::find(cached_values_.begin(),
                                   cached_values_.end(), ref_value_));
  }

  caching_ctx_.now = ctx.now;
  caching_ctx_.capacity = ctx.capacity;
  caching_ctx_.cached = &cached_values_;
  caching_ctx_.referenced = ref_value_;
  caching_ctx_.hit = hit_;
  caching_ctx_.history = &reference_history_;
  caching_policy_->Observe(caching_ctx_);
}

std::vector<TupleId> ReductionJoinPolicy::SelectRetained(
    const PolicyContext& ctx) {
  PrepareStep(ctx);

  std::vector<Value> retained_values;
  if (hit_) {
    // Cache state is unchanged in the caching problem; in the joining
    // problem the dead tuple s_(v,i) is swapped for fresh s_(v,i+1).
    retained_values = cached_values_;
  } else {
    retained_values = caching_policy_->SelectRetained(caching_ctx_);
  }

  std::vector<TupleId> retained_ids;
  retained_ids.reserve(retained_values.size());
  for (Value v : retained_values) {
    if (v == ref_value_) {
      // The freshest supply tuple for the referenced value is the arrival.
      retained_ids.push_back(s_arrival_id_);
    } else {
      const Tuple* cached = CachedFor(v);
      SJOIN_CHECK_MSG(cached != nullptr,
                      "policy retained a value that is not a candidate");
      retained_ids.push_back(cached->id);
    }
  }
  return retained_ids;
}

PolicyShardScoring* ReductionJoinPolicy::shard_scoring() {
  auto* scored = dynamic_cast<ScoredCachingPolicy*>(caching_policy_);
  if (scored == nullptr || !scored->ShardScorable() ||
      scored->has_score_observer()) {
    return nullptr;
  }
  shard_caching_ = scored;
  return this;
}

bool ReductionJoinPolicy::ShardBeginStep(const PolicyContext& ctx,
                                         std::vector<TupleId>* decided) {
  PrepareStep(ctx);
  if (!hit_) return true;  // Miss: rank the candidates shard-locally.
  // Hit: the caching problem keeps its cache verbatim; the joining side
  // swaps the dead tuple s_(v,i) for the fresh arrival s_(v,i+1). Nothing
  // is ranked, so the whole step is decided here.
  decided->clear();
  decided->reserve(cached_values_.size());
  for (Value v : cached_values_) {
    decided->push_back(v == ref_value_ ? s_arrival_id_ : CachedFor(v)->id);
  }
  return false;
}

std::optional<ShardKey> ReductionJoinPolicy::ShardScoreCached(
    const Tuple& tuple, const PolicyContext& ctx, ShardScratch* scratch) {
  (void)ctx;
  (void)scratch;
  // The expired copy of the referenced value was dropped from the
  // candidate set (see PrepareStep); it must not be retained.
  if (tuple.id == dropped_id_) return std::nullopt;
  // Decode is a bounds-checked vector lookup — thread-safe. Cached
  // candidates are never the referenced value on the miss path, so
  // is-referenced (the major tie-break) is always 0 here.
  Value v = reduction_->Decode(tuple.value).first;
  return ShardKey{shard_caching_->ShardScore(v, caching_ctx_), 0, v};
}

std::optional<ShardKey> ReductionJoinPolicy::ShardScoreArrival(
    const Tuple& tuple, const PolicyContext& ctx) {
  (void)ctx;
  // Reference tuples are never cached (the "reasonable policy" rule);
  // the supply arrival carries the demand-fetched referenced value.
  if (tuple.side == StreamSide::kR) return std::nullopt;
  return ShardKey{shard_caching_->ShardScore(ref_value_, caching_ctx_), 1,
                  ref_value_};
}

void ReductionJoinPolicy::ShardEndStep(const PolicyContext& ctx,
                                       const std::vector<TupleId>& retained,
                                       const std::vector<TupleId>& evicted) {
  (void)ctx;
  (void)retained;  // SelectRetained has no epilogue to mirror.
  (void)evicted;
}

}  // namespace sjoin
