// LaneTable: the flat, stamped key -> lane map behind the engines' commit,
// the Theorem 1 reduction's value lookups and the validation observer.

#include "sjoin/engine/lane_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sjoin/common/types.h"

namespace sjoin {
namespace {

using ValueTable = LaneTable<Value>;
using IdTable = LaneTable<TupleId>;

/// The first `count` keys at or above `start` whose probe chains start at
/// `home`.
std::vector<Value> KeysWithHome(const ValueTable& table, std::size_t home,
                                std::size_t count, Value start = 0) {
  std::vector<Value> keys;
  for (Value key = start; keys.size() < count; ++key) {
    if (table.HomeSlot(key) == home) keys.push_back(key);
  }
  return keys;
}

TEST(LaneTableTest, SizedToAPowerOfTwoOfAtLeastTwiceTheEntries) {
  ValueTable table;
  table.Reserve(16 + 2);
  EXPECT_EQ(table.num_slots(), 64u);
  table.Reserve(200 + 2);
  EXPECT_EQ(table.num_slots(), 512u);
  // A smaller request keeps the larger array.
  table.Reserve(3);
  EXPECT_EQ(table.num_slots(), 512u);
  ValueTable empty;
  empty.Reserve(0);
  EXPECT_EQ(empty.num_slots(), 2u);
}

TEST(LaneTableTest, InsertThenFind) {
  IdTable table;
  table.Reserve(8);
  table.Reset();
  for (TupleId id = 0; id < 8; ++id) {
    EXPECT_TRUE(table.Insert(id * 2 + 100, static_cast<IdTable::Lane>(id)));
  }
  EXPECT_EQ(table.size(), 8u);
  for (TupleId id = 0; id < 8; ++id) {
    EXPECT_EQ(table.Find(id * 2 + 100), id);
    EXPECT_EQ(table.Find(id * 2 + 101), IdTable::kNoLane);
  }
}

TEST(LaneTableTest, KeysForcedOntoTheSameHomeSlot) {
  ValueTable table;
  table.Reserve(6);  // 16 slots.
  const std::size_t home = table.num_slots() - 1;  // Chains wrap to slot 0.
  const std::vector<Value> keys = KeysWithHome(table, home, 6);
  table.Reset();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(table.Insert(keys[i], static_cast<ValueTable::Lane>(i)));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i]), i) << "key " << keys[i];
  }
}

TEST(LaneTableTest, AbsentKeyWalksAnOccupiedProbeChain) {
  ValueTable table;
  table.Reserve(5);  // 16 slots.
  const std::vector<Value> keys = KeysWithHome(table, 3, 6);
  table.Reset();
  // Occupy the chain with all but the last colliding key; a lookup of the
  // last one must walk every occupied slot and stop at the empty one.
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(table.Insert(keys[i], static_cast<ValueTable::Lane>(i)));
  }
  EXPECT_EQ(table.Find(keys.back()), ValueTable::kNoLane);
  // Keys homed inside the occupied run but never inserted miss too.
  for (const Value key : KeysWithHome(table, 5, 3)) {
    EXPECT_EQ(table.Find(key), ValueTable::kNoLane);
  }
}

TEST(LaneTableTest, NegativeKeys) {
  ValueTable table;
  table.Reserve(6);
  table.Reset();
  const std::vector<Value> keys = {-1, -2, -1000000007, INT64_MIN, 0, 1};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(table.Insert(keys[i], static_cast<ValueTable::Lane>(i)));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i]), i);
  }
  EXPECT_EQ(table.Find(-3), ValueTable::kNoLane);
  EXPECT_EQ(table.Find(INT64_MAX), ValueTable::kNoLane);
}

TEST(LaneTableTest, DuplicateInsertIsReportedAndKeepsTheFirstLane) {
  ValueTable table;
  table.Reserve(5);
  table.Reset();
  EXPECT_TRUE(table.Insert(-7, 0));
  EXPECT_TRUE(table.Insert(42, 1));
  EXPECT_FALSE(table.Insert(-7, 2));
  EXPECT_FALSE(table.Insert(42, 3));
  EXPECT_EQ(table.Find(-7), 0u);
  EXPECT_EQ(table.Find(42), 1u);
  EXPECT_EQ(table.size(), 2u);
  // Duplicates down a shared probe chain are caught as well.
  const std::vector<Value> keys = KeysWithHome(table, 0, 3, 1000);
  for (const Value key : keys) {
    ASSERT_TRUE(table.Insert(key, 9));
  }
  EXPECT_FALSE(table.Insert(keys[2], 10));
  EXPECT_EQ(table.Find(keys[2]), 9u);
}

TEST(LaneTableTest, ResetHidesEveryEntryOfThePreviousStep) {
  ValueTable table;
  table.Reserve(40);
  const std::size_t sizes[] = {40, 3, 17, 0, 40, 1, 25};
  Value next = -500;
  std::vector<Value> previous;
  for (const std::size_t size : sizes) {
    table.Reset();
    EXPECT_EQ(table.size(), 0u);
    std::vector<Value> current;
    for (std::size_t i = 0; i < size; ++i) {
      current.push_back(next);
      ASSERT_TRUE(table.Insert(next, static_cast<ValueTable::Lane>(i)));
      next += 37;
    }
    // Keys are fresh every step, so nothing from the last one survives.
    for (const Value key : previous) {
      EXPECT_EQ(table.Find(key), ValueTable::kNoLane) << "stale key " << key;
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      EXPECT_EQ(table.Find(current[i]), i);
    }
    previous = current;
  }
}

TEST(LaneTableTest, ReinsertAfterResetTakesTheNewLane) {
  ValueTable table;
  table.Reserve(4);
  table.Reset();
  ASSERT_TRUE(table.Insert(5, 0));
  ASSERT_TRUE(table.Insert(6, 1));
  table.Reset();
  // The same key again is not a duplicate across a Reset.
  EXPECT_TRUE(table.Insert(6, 3));
  EXPECT_EQ(table.Find(6), 3u);
  EXPECT_EQ(table.Find(5), ValueTable::kNoLane);
}

TEST(LaneTableTest, GrowingReserveDropsEntriesAndKeepsWorking) {
  ValueTable table;
  table.Reserve(2);
  table.Reset();
  ASSERT_TRUE(table.Insert(1, 0));
  table.Reserve(100);
  EXPECT_EQ(table.Find(1), ValueTable::kNoLane);
  table.Reset();
  for (Value key = 0; key < 100; ++key) {
    ASSERT_TRUE(table.Insert(key, static_cast<ValueTable::Lane>(key)));
  }
  for (Value key = 0; key < 100; ++key) {
    EXPECT_EQ(table.Find(key), static_cast<ValueTable::Lane>(key));
  }
}

TEST(LaneTableTest, StampWrapClearsEveryEntry) {
  // An 8-bit stamp wraps after 255 Resets. The wrapping Reset must clear
  // the slots: otherwise key 7's slot, stamped 1, reads as live again once
  // the stamp comes back round to 1.
  LaneTable<TupleId, std::uint8_t> table;
  table.Reserve(2);
  table.Reset();
  ASSERT_TRUE(table.Insert(7, 3));
  for (int resets = 1; resets <= 600; ++resets) {
    table.Reset();
    ASSERT_EQ(table.Find(7), IdTable::kNoLane) << "after " << resets;
  }
  EXPECT_TRUE(table.Insert(7, 4));
  EXPECT_TRUE(table.Insert(8, 5));
  EXPECT_EQ(table.Find(7), 4u);
  EXPECT_EQ(table.Find(8), 5u);
}

TEST(LaneTableDeathTest, InsertingPastTheReservedCountAborts) {
  ValueTable table;
  table.Reserve(2);
  table.Reset();
  ASSERT_TRUE(table.Insert(1, 0));
  ASSERT_TRUE(table.Insert(2, 1));
  EXPECT_DEATH(table.Insert(3, 2), "more keys than it was reserved for");
}

}  // namespace
}  // namespace sjoin
