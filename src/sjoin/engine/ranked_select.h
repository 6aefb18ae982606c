#ifndef SJOIN_ENGINE_RANKED_SELECT_H_
#define SJOIN_ENGINE_RANKED_SELECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/rank_order.h"

/// \file
/// Top-k selection under the strict rank_order.h orders, shared by every
/// selection site: ScoredPolicy and ScoredCachingPolicy selection, the
/// multi-way policies' KeepBestRanked, and MULTI-HEEB's selection and key
/// order.
///
/// The engines store the cache in the order a policy retained it, so each
/// step's candidates arrive as last step's ranked run followed by this
/// step's arrivals. When scores move little between steps that run is
/// nearly sorted, and an insertion pass ranks it in about one comparison
/// per candidate plus one shift per position an arrival (or a reordered
/// cached tuple) travels. RankTopK decides from the input before it spends
/// anything on that pass: a pre-scan counts descents (adjacent pairs out
/// of order). A nearly sorted run has a few, the arrivals plus the cached
/// tuples that swapped; random scores (RAND, CACHE-RAND) have about n/2.
/// Past RankTopKDescentLimit the pre-scan stops and the candidates go
/// straight to nth_element + prefix sort. Few descents can still hide long
/// travel (two interleaved sorted runs have one), so the insertion pass
/// also falls back once its shifts exceed a linear budget; the worst case
/// stays O(n + k log k) beyond that budget.
///
/// Exactness: under a strict total order the best `keep` candidates, in
/// order, are unique. Both paths produce that prefix, so the result is a
/// pure function of the keys whatever path runs.

namespace sjoin {

/// Shift budget of RankTopK's insertion pass over `n` candidates. Sized
/// for the arrivals' insertions (about arrivals × n/2 shifts): a 5-way
/// star step with 100 cached tuples and 5 arrivals needs ~500.
constexpr std::size_t RankTopKMoveBudget(std::size_t n) { return 8 * n + 64; }

/// Descents RankTopK's pre-scan tolerates over `n` candidates before it
/// skips the insertion pass. Measured at perf_smoke defaults, the nearly
/// sorted sites average at most 11 descents per call at n = 52 and 9 at
/// n = 104, while random scores average n/2.
constexpr std::size_t RankTopKDescentLimit(std::size_t n) { return n / 4 + 8; }

/// Puts the best min(keep, n) of data[0, n) under `better` (a strict total
/// order) into data[0, keep), ranked best first; the rest of the range is
/// left in unspecified order. Returns true when the insertion pass ran and
/// finished within RankTopKMoveBudget(n), false when the pre-scan or the
/// budget sent it to nth_element + prefix sort (tests use this to reach
/// every path).
template <typename T, typename Better>
bool RankTopK(T* data, std::size_t n, std::size_t keep, Better better) {
  keep = std::min(keep, n);
  std::vector<T> reference;
  if constexpr (kValidationEnabled) {
    reference.assign(data, data + n);
    if (keep < n) {
      std::nth_element(reference.begin(), reference.begin() + keep,
                       reference.end(), better);
    }
    std::sort(reference.begin(), reference.begin() + keep, better);
  }
  // Pre-scan, stopping as soon as the descents pass the limit.
  const std::size_t descent_limit = RankTopKDescentLimit(n);
  std::size_t descents = 0;
  for (std::size_t i = 1; i < n && keep > 0 && descents <= descent_limit;
       ++i) {
    if (better(data[i], data[i - 1])) ++descents;
  }
  const std::size_t budget = RankTopKMoveBudget(n);
  std::size_t moves = 0;
  bool within_budget = descents <= descent_limit;
  // The sorted prefix grows to `keep` entries; after that, a candidate
  // enters only when it beats the current k-th, which it displaces into
  // the candidate's old slot. A nearly sorted run moves its entries a few
  // places, found by a short linear probe; an entry that travels further
  // (an arrival ranked near the top) binary-searches its place, and the
  // block it jumps shifts down as one move.
  constexpr std::size_t kLinearProbe = 8;
  for (std::size_t i = 1; i < n && keep > 0 && within_budget; ++i) {
    const std::size_t last = std::min(i, keep) - 1;
    if (!better(data[i], data[last])) continue;
    T entry = std::move(data[i]);
    if (i > last) data[i] = std::move(data[last]);
    std::size_t j = last;
    const std::size_t stop = j > kLinearProbe ? j - kLinearProbe : 0;
    while (j > stop && better(entry, data[j - 1])) --j;
    if (j == stop && j > 0 && better(entry, data[j - 1])) {
      j = static_cast<std::size_t>(
          std::upper_bound(data, data + j, entry, better) - data);
    }
    std::move_backward(data + j, data + last, data + last + 1);
    data[j] = std::move(entry);
    moves += last - j + 1;
    within_budget = moves <= budget;
  }
  if (!within_budget) {
    if (keep < n) std::nth_element(data, data + keep, data + n, better);
    std::sort(data, data + keep, better);
  }
  if constexpr (kValidationEnabled) {
    for (std::size_t i = 0; i < keep; ++i) {
      SJOIN_VALIDATE_MSG(!better(data[i], reference[i]) &&
                             !better(reference[i], data[i]),
                         "RankTopK prefix differs from nth_element + sort");
    }
  }
  return within_budget;
}

/// One scored retention candidate. `lane` is its candidate lane (cached
/// then arrivals) where the ranking site reports one; the order ignores it.
struct RankedTuple {
  double score = 0.0;
  Time arrival = 0;
  TupleId id = 0;
  std::uint32_t lane = 0;
};

/// The rank_order.h strict total order over RankedTuples. A lambda object
/// rather than a function: passed to RankTopK or std::sort it is a type
/// the compiler inlines, where a function decays to a pointer that stays
/// an out-of-line call per comparison.
inline constexpr auto RankedTupleBetter = [](const RankedTuple& a,
                                             const RankedTuple& b) {
  return RankOrderBetter(a.score, a.arrival, a.id, b.score, b.arrival, b.id);
};

/// Best `capacity` ids, ranked by (score desc, arrival desc, id desc),
/// selected by RankTopK.
inline std::vector<TupleId> KeepBestRanked(std::vector<RankedTuple> ranked,
                                           std::size_t capacity) {
  const std::size_t keep = std::min(capacity, ranked.size());
  RankTopK(ranked.data(), ranked.size(), keep, RankedTupleBetter);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) retained.push_back(ranked[i].id);
  return retained;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_RANKED_SELECT_H_
