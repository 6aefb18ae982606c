#ifndef SJOIN_ENGINE_SCORING_BATCH_H_
#define SJOIN_ENGINE_SCORING_BATCH_H_

#include "sjoin/common/check.h"

/// \file
/// Vestiges of the removed batch-scoring switch. Every policy has one
/// scoring path, so there is nothing left to switch. These two functions
/// stay only because perfbench calls them; ROADMAP item 1's
/// benchmark change deletes them together with this header.

namespace sjoin {

/// Always true.
inline bool ScoringBatchEnabled() { return true; }

/// Accepts only true; there is no other path to select.
inline void SetScoringBatchEnabled(bool enabled) { SJOIN_CHECK(enabled); }

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORING_BATCH_H_
