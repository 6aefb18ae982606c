#ifndef SJOIN_STOCHASTIC_STREAM_HISTORY_H_
#define SJOIN_STOCHASTIC_STREAM_HISTORY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/common/types.h"

/// \file
/// Observed realization of one stream up to the current time.
///
/// The paper writes this as x̄_{t0}, "the history of all streams observed by
/// the algorithm up to the current time t0". Processes condition their
/// predictive distributions on it. Every process the paper evaluates
/// (linear trend, random walk, AR(1), stationary) needs only t0 and the
/// last value, and every policy folds each value into its own statistics
/// the step it arrives. So the history keeps x̄_{t0} as a fixed tail: the
/// absolute size() plus the last kTail values. A served session's memory
/// then stays O(capacity + kTail) however many steps it runs, and a reader
/// that needs an older value aborts instead of reading a wrong one.

namespace sjoin {

/// Values observed at times 0, 1, ..., size() - 1, of which the last
/// kTail are readable.
class StreamHistory {
 public:
  /// Readable tail length; a power of two.
  static constexpr Time kTail = 64;

  StreamHistory() = default;

  /// A history of `values.size()` observations holding the last kTail of
  /// `values`.
  explicit StreamHistory(const std::vector<Value>& values)
      : size_(static_cast<Time>(values.size())) {
    if (values.empty()) return;
    Allocate(static_cast<std::uint32_t>(
        std::bit_ceil(std::min<std::size_t>(values.size(), kTail))));
    for (Time t = std::max<Time>(0, size_ - kTail); t < size_; ++t) {
      ring_[Slot(t)] = values[static_cast<std::size_t>(t)];
    }
  }

  StreamHistory(const StreamHistory& other) : size_(other.size_) {
    if (other.capacity_ == 0) return;
    Allocate(other.capacity_);
    std::copy_n(other.ring_.get(), capacity_, ring_.get());
  }
  StreamHistory(StreamHistory&& other) noexcept
      : ring_(std::move(other.ring_)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  StreamHistory& operator=(StreamHistory other) noexcept {
    std::swap(ring_, other.ring_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }

  /// Appends the value observed at time size(). The ring doubles until it
  /// holds kTail values, then overwrites the oldest.
  void Append(Value v) {
    if (static_cast<Time>(capacity_) == size_ && size_ < kTail) Grow();
    ring_[Slot(size_)] = v;
    ++size_;
  }

  /// Number of observed time steps; the next arrival is at time size().
  Time size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// Value observed at time t, which must lie in the tail:
  /// max(0, size() - kTail) <= t < size().
  Value at(Time t) const {
    SJOIN_CHECK_GE(t, 0);
    SJOIN_CHECK_LT(t, size_);
    SJOIN_CHECK_MSG(size_ - t <= kTail,
                    "StreamHistory::at reads past the kept tail");
    return ring_[Slot(t)];
  }

  /// Most recent observation. Must not be empty.
  Value back() const {
    SJOIN_CHECK(size_ > 0);
    return ring_[Slot(size_ - 1)];
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 8;
  static_assert((kTail & (kTail - 1)) == 0, "kTail must be a power of two");

  /// Ring slot of time t. Until the ring first wraps, size() <= capacity_
  /// and time t sits in slot t.
  std::size_t Slot(Time t) const {
    return static_cast<std::size_t>(t) & (capacity_ - 1);
  }

  void Allocate(std::uint32_t capacity) {
    ring_ = std::make_unique<Value[]>(capacity);
    capacity_ = capacity;
  }

  /// Called only while the ring is full and unwrapped (size() ==
  /// capacity_ < kTail), so slot t keeps holding time t.
  void Grow() {
    std::unique_ptr<Value[]> old = std::move(ring_);
    const std::uint32_t kept = capacity_;
    Allocate(kept == 0 ? kFirstCapacity : 2 * kept);
    std::copy_n(old.get(), kept, ring_.get());
  }

  std::unique_ptr<Value[]> ring_;
  Time size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_STOCHASTIC_STREAM_HISTORY_H_
