// StreamHistory keeps x̄_{t0} as a fixed tail: the absolute size() plus the
// last kTail values. These cases pin the ring's arithmetic (absolute
// sizes across many wraps, the readable window, construction from a
// longer prefix, copies and moves) and that reads outside the tail abort.

#include "sjoin/stochastic/stream_history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace sjoin {
namespace {

constexpr Time kTail = StreamHistory::kTail;

/// The value appended at time t in these tests: distinct per t.
Value ValueAt(Time t) { return 3 * t - 7; }

StreamHistory Filled(Time len) {
  StreamHistory history;
  for (Time t = 0; t < len; ++t) history.Append(ValueAt(t));
  return history;
}

/// Every readable time of `history` holds ValueAt(t).
void ExpectTail(const StreamHistory& history) {
  const Time first = std::max<Time>(0, history.size() - kTail);
  for (Time t = first; t < history.size(); ++t) {
    ASSERT_EQ(history.at(t), ValueAt(t)) << "t=" << t;
  }
  if (!history.empty()) {
    EXPECT_EQ(history.back(), ValueAt(history.size() - 1));
  }
}

TEST(StreamHistoryTest, IsTwentyFourBytes) {
  // One pointer, the absolute size and a 32-bit ring capacity: a
  // session's per-stream bookkeeping does not grow with the tail.
  EXPECT_EQ(sizeof(StreamHistory), 24u);
}

TEST(StreamHistoryTest, SizeStaysAbsoluteAcrossManyWraps) {
  StreamHistory history;
  EXPECT_TRUE(history.empty());
  EXPECT_EQ(history.size(), 0);
  const Time len = 50 * kTail + 13;
  for (Time t = 0; t < len; ++t) {
    history.Append(ValueAt(t));
    ASSERT_EQ(history.size(), t + 1);
    ASSERT_EQ(history.back(), ValueAt(t));
    // The value a fold cursor one step behind reads, and the oldest kept.
    ASSERT_EQ(history.at(t), ValueAt(t));
    const Time oldest = std::max<Time>(0, t + 1 - kTail);
    ASSERT_EQ(history.at(oldest), ValueAt(oldest));
  }
  EXPECT_FALSE(history.empty());
  ExpectTail(history);
}

TEST(StreamHistoryTest, EveryGrowthStageKeepsItsValues) {
  for (Time len : {Time{1}, Time{7}, Time{8}, Time{9}, Time{31}, Time{33},
                   kTail - 1, kTail, kTail + 1, 2 * kTail + 5}) {
    SCOPED_TRACE(len);
    ExpectTail(Filled(len));
  }
}

TEST(StreamHistoryTest, VectorLongerThanTheTailKeepsItsLastValues) {
  const Time len = 3 * kTail + 17;
  std::vector<Value> values;
  for (Time t = 0; t < len; ++t) values.push_back(ValueAt(t));
  StreamHistory history(values);
  EXPECT_EQ(history.size(), len);
  ExpectTail(history);
  // Appends continue the same absolute timeline.
  for (Time t = len; t < len + 2 * kTail; ++t) history.Append(ValueAt(t));
  EXPECT_EQ(history.size(), len + 2 * kTail);
  ExpectTail(history);
}

TEST(StreamHistoryTest, ShortVectorsGrowLikeAppends) {
  for (Time len : {Time{0}, Time{1}, Time{3}, Time{5}, kTail}) {
    SCOPED_TRACE(len);
    std::vector<Value> values;
    for (Time t = 0; t < len; ++t) values.push_back(ValueAt(t));
    StreamHistory history(values);
    EXPECT_EQ(history.size(), len);
    ExpectTail(history);
    for (Time t = len; t < len + kTail + 9; ++t) history.Append(ValueAt(t));
    ExpectTail(history);
  }
}

TEST(StreamHistoryTest, CopiesAreIndependent) {
  for (Time len : {Time{0}, Time{5}, kTail + 3}) {
    SCOPED_TRACE(len);
    StreamHistory original = Filled(len);
    StreamHistory copy(original);
    EXPECT_EQ(copy.size(), len);
    ExpectTail(copy);
    // Diverge the two: the original keeps the shared timeline, the copy a
    // different value at time `len`.
    original.Append(ValueAt(len));
    copy.Append(ValueAt(len) + 1);
    EXPECT_EQ(original.back(), ValueAt(len));
    EXPECT_EQ(copy.back(), ValueAt(len) + 1);
    ExpectTail(original);

    StreamHistory assigned = Filled(2 * kTail);
    assigned = original;
    EXPECT_EQ(assigned.size(), original.size());
    ExpectTail(assigned);
  }
}

TEST(StreamHistoryTest, MovesTransferTheTailAndEmptyTheSource) {
  StreamHistory source = Filled(kTail + 9);
  StreamHistory moved(std::move(source));
  EXPECT_EQ(moved.size(), kTail + 9);
  ExpectTail(moved);
  // A moved-from history is empty and usable.
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.Append(ValueAt(0));
  ExpectTail(source);

  StreamHistory target = Filled(3);
  target = std::move(moved);
  EXPECT_EQ(target.size(), kTail + 9);
  ExpectTail(target);
}

TEST(StreamHistoryTest, SelfAssignmentKeepsTheHistory) {
  StreamHistory history = Filled(kTail + 21);
  StreamHistory& alias = history;
  history = alias;
  EXPECT_EQ(history.size(), kTail + 21);
  ExpectTail(history);
  history = std::move(alias);
  EXPECT_EQ(history.size(), kTail + 21);
  ExpectTail(history);
}

TEST(StreamHistoryDeathTest, ReadsBeforeTheTailAbort) {
  const StreamHistory history = Filled(3 * kTail);
  EXPECT_DEATH(history.at(history.size() - kTail - 1), "kept tail");
  EXPECT_DEATH(history.at(0), "kept tail");
  EXPECT_DEATH(history.at(history.size()), "");
  EXPECT_DEATH(history.at(-1), "");
}

TEST(StreamHistoryDeathTest, BackOnAnEmptyHistoryAborts) {
  const StreamHistory history;
  EXPECT_DEATH(history.back(), "");
  StreamHistory moved_from = Filled(4);
  StreamHistory sink(std::move(moved_from));
  EXPECT_DEATH(moved_from.back(), "");  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace sjoin
