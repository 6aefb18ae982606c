#ifndef SJOIN_ENGINE_LANE_TABLE_H_
#define SJOIN_ENGINE_LANE_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/common/types.h"
#include "sjoin/engine/stream_tuple.h"

/// \file
/// A flat, stamped key -> lane table for per-step lookups.
///
/// Every step, the engine's commit maps the step's candidate ids to their
/// position ("lane") in the candidate order (cached tuples, then
/// arrivals), and the Theorem 1 reduction maps decoded supply values to
/// their cached lane. The mapping lives for one step. A node-based hash
/// map pays one allocation and one free per key for that; LaneTable keeps
/// its slots in one open-addressed, linearly probed power-of-two array
/// that is sized once and never rehashed. Reset() clears it in O(1) by
/// bumping a stamp: a slot is live only while its stamp equals the
/// table's, so entries from earlier steps are invisible without being
/// touched. The stamp is 32-bit by default, which keeps a slot at 16
/// bytes; the Reset that wraps it clears every slot, so an entry from an
/// earlier step never reads as live again.

namespace sjoin {

/// Open-addressed Key -> lane map with O(1) Reset. Key is a 64-bit integer
/// (TupleId or Value; negative keys are fine). The table holds at least
/// twice as many slots as the entry count it was reserved for, so probe
/// chains stay short and every lookup terminates on an empty slot. Stamp
/// is the unsigned Reset counter (a narrower one lets tests reach the
/// wrap).
template <typename Key, typename Stamp = std::uint32_t>
class LaneTable {
  static_assert(std::is_integral_v<Key> && sizeof(Key) == 8,
                "LaneTable keys are 64-bit integers");
  static_assert(std::is_unsigned_v<Stamp>, "LaneTable stamps are unsigned");

 public:
  using Lane = std::uint32_t;
  static constexpr Lane kNoLane = ~Lane{0};

  /// Makes room for `max_entries` keys between Resets: at least
  /// 2 * max_entries slots, rounded up to a power of two. Growing drops
  /// every entry (call it between steps); a request the table already
  /// covers changes nothing.
  void Reserve(std::size_t max_entries) {
    max_entries_ = max_entries;
    const std::size_t want = std::bit_ceil(std::max<std::size_t>(
        2 * max_entries, 2));
    if (want <= slots_.size()) return;
    slots_.assign(want, Slot{});
    shift_ = 64 - std::countr_zero(want);
    size_ = 0;
  }

  /// Forgets every entry; O(1) except on the Reset that wraps the stamp,
  /// which clears the slots so that no old stamp reads as live.
  void Reset() {
    size_ = 0;
    if (++stamp_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      stamp_ = 1;
    }
  }

  /// Maps `key` to `lane`. Returns false, keeping the existing mapping,
  /// when `key` is already present since the last Reset.
  bool Insert(Key key, Lane lane) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        SJOIN_CHECK_MSG(size_ < max_entries_,
                        "lane table holds more keys than it was reserved for");
        slot = {key, lane, stamp_};
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
    }
  }

  /// Lane of `key`, or kNoLane when it was not inserted since the last
  /// Reset.
  Lane Find(Key key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.stamp != stamp_) return kNoLane;
      if (slot.key == key) return slot.lane;
    }
  }

  /// Keys inserted since the last Reset.
  std::size_t size() const { return size_; }
  std::size_t num_slots() const { return slots_.size(); }

  /// Slot where `key`'s probe chain starts (Fibonacci hashing: the top
  /// bits of key * 2^64/phi, which spreads sequential ids evenly). Public
  /// so tests can build colliding keys on purpose. Requires Reserve.
  std::size_t HomeSlot(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

 private:
  struct Slot {
    Key key = 0;
    Lane lane = 0;
    /// Live iff equal to the table's stamp_; 0 never is.
    Stamp stamp = 0;
  };

  std::vector<Slot> slots_;
  int shift_ = 63;
  Stamp stamp_ = 1;
  std::size_t size_ = 0;
  std::size_t max_entries_ = 0;
};

/// One step's commit view of the candidates: lane i < cached.size() is
/// cached[i], the remaining lanes are the arrivals in order. Marks the
/// lanes a policy retains and, on demand, maps candidate ids to lanes,
/// which is all the engine's commit needs to validate the retained ids
/// and split the candidates into kept and evicted. A policy that reports
/// its retained lanes spares the commit the id map.
class CandidateLanes {
 public:
  using Lane = LaneTable<TupleId>::Lane;
  static constexpr Lane kNoLane = LaneTable<TupleId>::kNoLane;

  /// Sizes the table once for steps of up to `max_candidates` candidates.
  void Reserve(std::size_t max_candidates) {
    ids_.Reserve(max_candidates);
    taken_.reserve(max_candidates);
  }

  /// Rebinds to this step's candidates (both vectors are borrowed until
  /// the next Bind) and clears every taken mark. Find needs IndexIds.
  void Bind(const std::vector<StreamTuple>& cached,
            const std::vector<StreamTuple>& arrivals) {
    cached_ = &cached;
    arrivals_ = &arrivals;
    taken_.assign(cached.size() + arrivals.size(), 0);
  }

  /// Maps every bound candidate id to its lane.
  void IndexIds() {
    ids_.Reset();
    Lane lane = 0;
    // Ids are unique across the candidates: the commit never caches an id
    // twice, and arrival ids are minted this step.
    for (const StreamTuple& tuple : *cached_) ids_.Insert(tuple.id, lane++);
    for (const StreamTuple& tuple : *arrivals_) ids_.Insert(tuple.id, lane++);
  }

  std::size_t size() const { return taken_.size(); }
  Lane Find(TupleId id) const { return ids_.Find(id); }
  const StreamTuple& tuple(Lane lane) const {
    return lane < cached_->size() ? (*cached_)[lane]
                                  : (*arrivals_)[lane - cached_->size()];
  }

  /// Marks `lane` retained; false when it already was this step.
  bool Take(Lane lane) {
    if (taken_[lane] != 0) return false;
    taken_[lane] = 1;
    return true;
  }
  bool taken(Lane lane) const { return taken_[lane] != 0; }

 private:
  LaneTable<TupleId> ids_;
  std::vector<std::uint8_t> taken_;
  const std::vector<StreamTuple>* cached_ = nullptr;
  const std::vector<StreamTuple>* arrivals_ = nullptr;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_LANE_TABLE_H_
