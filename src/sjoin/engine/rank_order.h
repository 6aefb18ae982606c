#ifndef SJOIN_ENGINE_RANK_ORDER_H_
#define SJOIN_ENGINE_RANK_ORDER_H_

/// \file
/// The repo-wide strict (score desc, major desc, minor desc) total order.
///
/// Every comparison sort in the retention path — the ScoredPolicy and
/// ScoredCachingPolicy selections, the multi-way policies' ranked top-k,
/// and the edge-budget spill — must rank candidates by exactly the same
/// order, or policy implementations and their oracles would stop being
/// bit-identical. This header is that
/// order's single definition; call sites bind (major, minor) to
/// (arrival time, tuple id) for the joining problem and to
/// (is-referenced, original value) for the Theorem 1 caching reduction.
///
/// With distinct `minor` values (tuple ids are unique; so are cached
/// values in the caching problem) the order is strict and total, which is
/// what makes top-k selection a pure function of the scores.

namespace sjoin {

/// True when (score_a, major_a, minor_a) ranks strictly better than
/// (score_b, major_b, minor_b): score descending, then major descending,
/// then minor descending. `Major` and `Minor` are any ordered integer
/// types; signedness must match between the two operands (the template
/// keeps Time/TupleId call sites from converting implicitly).
template <typename Major, typename Minor>
inline bool RankOrderBetter(double score_a, Major major_a, Minor minor_a,
                            double score_b, Major major_b, Minor minor_b) {
  if (score_a != score_b) return score_a > score_b;
  if (major_a != major_b) return major_a > major_b;
  return minor_a > minor_b;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_RANK_ORDER_H_
