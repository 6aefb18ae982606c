#ifndef PERFBENCH_TIMED_POLICY_H_
#define PERFBENCH_TIMED_POLICY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"

/// \file
/// Instrumentation the benchmark attaches from outside the library: a
/// forwarding EnginePolicy decorator that times SelectRetained, and the
/// StepObservers that fingerprint a run's decisions and pick the arrival
/// the perturbation self-test changes.

namespace perfbench {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// FNV-1a over the eight little-endian bytes of `value`.
inline std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// One step's contribution to a retained-id trace hash: the step time,
/// then the retained ids in policy order. The observer and the decorator
/// below hash identically, so either can fingerprint a run.
inline std::uint64_t HashStep(std::uint64_t hash, sjoin::Time now,
                              const std::vector<sjoin::TupleId>& retained) {
  hash = FnvMix(hash, static_cast<std::uint64_t>(now));
  for (sjoin::TupleId id : retained) hash = FnvMix(hash, id);
  return hash;
}

/// What a run decided, compared between a served session and its
/// reference: `counted_results` (the paper's metric, results after the
/// warm-up), `total_results` (warm-up included) and the retained-id trace
/// hash. A run that hashed no step has a vacuous fingerprint. One session
/// may legitimately produce no result (two random walks can drift apart
/// for good), so the drivers require results from the workload as a
/// whole rather than from every session.
struct Fingerprint {
  std::int64_t counted_results = 0;
  std::int64_t total_results = 0;
  std::uint64_t trace_hash = kFnvOffsetBasis;

  bool operator==(const Fingerprint&) const = default;
  bool vacuous() const { return trace_hash == kFnvOffsetBasis; }
};

/// Hashes every step's retained ids (FNV-1a) for one run.
class TraceHashObserver final : public sjoin::StepObserver {
 public:
  void OnRunBegin(const sjoin::EngineRunView&) override {
    hash_ = kFnvOffsetBasis;
  }
  void OnStep(const sjoin::EngineStepView& step) override {
    hash_ = HashStep(hash_, step.now, *step.retained);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// Finds where a perturbation must show: the first arrival of stream 0
/// that joins the cache at arrival (some cached tuple of a partner stream
/// carries its value). Replacing that arrival's value by one no stream
/// contains removes those results, so the perturbation self-test does not
/// depend on luck.
class JoiningArrivalFinder final : public sjoin::StepObserver {
 public:
  /// `stream0` (not owned) is stream 0's arrivals; `partners` are the
  /// streams that join stream 0.
  JoiningArrivalFinder(const std::vector<sjoin::Value>* stream0,
                       std::vector<int> partners)
      : stream0_(stream0), partners_(std::move(partners)) {}

  void OnStep(const sjoin::EngineStepView& step) override {
    const sjoin::Time next = step.now + 1;
    if (found_ >= 0 || next >= static_cast<sjoin::Time>(stream0_->size())) {
      return;
    }
    const sjoin::Value v = (*stream0_)[static_cast<std::size_t>(next)];
    for (const sjoin::StreamTuple& cached : *step.cache) {
      for (int partner : partners_) {
        if (cached.stream == partner && cached.value == v) found_ = next;
      }
    }
  }

  /// The step, or -1 if no such arrival exists.
  sjoin::Time found() const { return found_; }

  /// A value none of `streams` contains: one above their maximum.
  static sjoin::Value UnseenValue(
      const std::vector<const std::vector<sjoin::Value>*>& streams) {
    sjoin::Value max = 0;
    for (const std::vector<sjoin::Value>* stream : streams) {
      for (sjoin::Value v : *stream) max = std::max(max, v);
    }
    return max + 1;
  }

 private:
  const std::vector<sjoin::Value>* stream0_;
  std::vector<int> partners_;
  sjoin::Time found_ = -1;
};

/// Forwarding decorator that times each SelectRetained call on the
/// steady clock and counts calls and candidates. Reset, WantsCandidateBatch
/// and name pass through, so the engine builds the SoA candidate batch
/// exactly when the wrapped policy wants it. shard_scoring() is not
/// forwarded: the sharded protocol never calls SelectRetained, so a
/// wrapped policy always runs the serial step the benchmark measures.
///
/// Counters are plain members: a policy serves one session, and a session
/// runs on one worker at a time, with the scheduler's round barrier
/// ordering the driver's reads after the workers' writes.
class TimedPolicy final : public sjoin::EnginePolicy {
 public:
  struct Stats {
    std::int64_t ns = 0;
    std::int64_t calls = 0;
    std::int64_t candidates = 0;
  };

  /// `inner` is not owned and must outlive the decorator.
  explicit TimedPolicy(sjoin::EnginePolicy* inner) : inner_(inner) {}

  void Reset() override {
    inner_->Reset();
    trace_hash_ = kFnvOffsetBasis;
  }

  std::vector<sjoin::TupleId> SelectRetained(
      const sjoin::EngineContext& ctx) override {
    const auto start = std::chrono::steady_clock::now();
    std::vector<sjoin::TupleId> retained = inner_->SelectRetained(ctx);
    const auto end = std::chrono::steady_clock::now();
    stats_.ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    ++stats_.calls;
    stats_.candidates += static_cast<std::int64_t>(ctx.cached->size() +
                                                   ctx.arrivals->size());
    trace_hash_ = HashStep(trace_hash_, ctx.now, retained);
    return retained;
  }

  bool WantsCandidateBatch() const override {
    return inner_->WantsCandidateBatch();
  }
  const char* name() const override { return inner_->name(); }

  const Stats& stats() const { return stats_; }
  /// Retained-id trace hash since the last Reset (the engine resets the
  /// policy when a session opens).
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  sjoin::EnginePolicy* inner_;
  Stats stats_;
  std::uint64_t trace_hash_ = kFnvOffsetBasis;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_POLICY_H_
