// The session scheduler's round mechanics, case by case: which sessions a
// round picks up (the ready list), when a finishing session closes, that
// shed or empty offers leave nothing to run, and that the slice order and
// per-step traces do not depend on the offer order, on the worker count,
// or on whether a one-session round ran inline on the driver thread.
// (serve_differential covers randomized interleavings against solo runs.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/serve/session_scheduler.h"

namespace sjoin {
namespace serve {
namespace {

std::vector<Value> SampleValues(Time len, Value domain, Rng& rng) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    out.push_back(rng.UniformInt(0, domain - 1));
  }
  return out;
}

/// Elements [begin, end) of `v`.
std::vector<Value> Slice(const std::vector<Value>& v, std::size_t begin,
                         std::size_t end) {
  return std::vector<Value>(v.begin() + static_cast<std::ptrdiff_t>(begin),
                            v.begin() + static_cast<std::ptrdiff_t>(end));
}

/// Per-step trace: produced count, candidate count, cache ids and the
/// retained ids, so any divergence in the step loop shows up.
struct StepTrace {
  Time now = 0;
  std::int64_t produced = 0;
  std::size_t num_candidates = 0;
  std::vector<TupleId> cache_ids;
  std::vector<TupleId> retained;

  friend bool operator==(const StepTrace&, const StepTrace&) = default;
};

class TraceObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    StepTrace trace;
    trace.now = step.now;
    trace.produced = step.produced;
    trace.num_candidates = step.num_candidates;
    for (const StreamTuple& tuple : *step.cache) {
      trace.cache_ids.push_back(tuple.id);
    }
    trace.retained = *step.retained;
    steps_.push_back(std::move(trace));
  }
  void OnRunEnd(const EngineRunView& run) override { end_length_ = run.length; }

  const std::vector<StepTrace>& steps() const { return steps_; }
  Time end_length() const { return end_length_; }

 private:
  std::vector<StepTrace> steps_;
  Time end_length_ = -1;
};

/// A scheduler plus the PROB policy, adapter and trace each of its
/// sessions borrows (one of each per session: policies are stateful).
class Harness {
 public:
  explicit Harness(SessionScheduler::Options options)
      : scheduler_(StreamTopology::Binary(), options) {}

  SessionId Open(std::size_t capacity, int weight = 1) {
    policies_.push_back(std::make_unique<ProbPolicy>());
    adapters_.emplace_back(policies_.back().get());
    traces_.emplace_back();
    SessionConfig config;
    config.engine.capacity = capacity;
    config.policy = &adapters_.back();
    config.observers = {&traces_.back()};
    config.weight = weight;
    const Admission admission = scheduler_.Open(config);
    EXPECT_TRUE(admission.ok());
    return admission.id;
  }

  std::size_t Offer(SessionId id, const std::vector<Value>& r,
                    const std::vector<Value>& s) {
    return scheduler_.Offer(id, {&r, &s});
  }

  SessionScheduler& scheduler() { return scheduler_; }
  const TraceObserver& trace(SessionId id) const {
    return traces_[static_cast<std::size_t>(id)];
  }

  /// The (session, steps) sequence of every slice so far.
  std::vector<std::pair<SessionId, Time>> Slices() const {
    std::vector<std::pair<SessionId, Time>> out;
    for (const SliceLatency& slice : scheduler_.slice_latencies()) {
      out.emplace_back(slice.session, slice.steps);
    }
    return out;
  }

 private:
  SessionScheduler scheduler_;
  std::vector<std::unique_ptr<ProbPolicy>> policies_;
  std::deque<BinaryPolicyAdapter> adapters_;
  std::deque<TraceObserver> traces_;
};

/// Solo reference: the same arrivals through one engine's batch Run.
std::pair<EngineRunResult, std::vector<StepTrace>> SoloRun(
    std::size_t capacity, const std::vector<Value>& r,
    const std::vector<Value>& s) {
  ProbPolicy policy;
  BinaryPolicyAdapter adapter(&policy);
  StreamEngine::Options options;
  options.capacity = capacity;
  StreamEngine engine(StreamTopology::Binary(), options);
  TraceObserver trace;
  EngineRunResult result = engine.Run({&r, &s}, adapter, {&trace});
  return {result, trace.steps()};
}

SessionScheduler::Options WithThreads(int threads) {
  SessionScheduler::Options options;
  options.threads = threads;
  return options;
}

TEST(SessionSchedulerTest, IdleRoundReturnsZero) {
  for (int threads : {1, 4}) {
    Harness harness(WithThreads(threads));
    for (int i = 0; i < 3; ++i) harness.Open(4);
    EXPECT_EQ(harness.scheduler().RunRound(), 0);

    // A session whose queue ran dry is idle again.
    Rng rng(3);
    const std::vector<Value> r = SampleValues(5, 4, rng);
    const std::vector<Value> s = SampleValues(5, 4, rng);
    ASSERT_EQ(harness.Offer(1, r, s), 5u);
    EXPECT_EQ(harness.scheduler().RunRound(), 5);
    EXPECT_EQ(harness.scheduler().RunRound(), 0);
    EXPECT_EQ(harness.scheduler().stats().rounds, 1);
    EXPECT_EQ(harness.scheduler().slice_latencies().size(), 1u);
  }
}

TEST(SessionSchedulerTest, FinishWithoutOfferClosesOnNextRound) {
  for (int threads : {1, 4}) {
    Harness harness(WithThreads(threads));
    harness.Open(4);
    const SessionId id = harness.Open(4);
    harness.scheduler().Finish(id);
    EXPECT_FALSE(harness.scheduler().closed(id));

    EXPECT_EQ(harness.scheduler().RunRound(), 0);
    EXPECT_TRUE(harness.scheduler().closed(id));
    EXPECT_FALSE(harness.scheduler().closed(0));
    EXPECT_EQ(harness.scheduler().result(id).total_results, 0);
    EXPECT_EQ(harness.scheduler().result(id).counted_results, 0);
    EXPECT_EQ(harness.trace(id).end_length(), 0);
    EXPECT_EQ(harness.scheduler().stats().sessions_closed, 1);
    EXPECT_TRUE(harness.scheduler().slice_latencies().empty());
    // Finish on a closed session is a no-op and leaves nothing to run.
    harness.scheduler().Finish(id);
    EXPECT_EQ(harness.scheduler().RunRound(), 0);
    EXPECT_EQ(harness.scheduler().stats().rounds, 1);
  }
}

TEST(SessionSchedulerTest, ShedOfferDoesNotMakeSessionReady) {
  SessionScheduler::Options options;
  options.queue_capacity = 8;
  options.high_watermark = 4;
  Harness harness(options);
  const SessionId id = harness.Open(4);
  Rng rng(7);
  const std::vector<Value> r = SampleValues(4, 4, rng);
  const std::vector<Value> s = SampleValues(4, 4, rng);
  const std::vector<Value> empty;

  // An empty offer accepts nothing: no round runs.
  EXPECT_EQ(harness.Offer(id, empty, empty), 0u);
  EXPECT_EQ(harness.scheduler().RunRound(), 0);
  EXPECT_EQ(harness.scheduler().stats().rounds, 0);

  // At the watermark the second offer is shed whole; only the first one's
  // steps run, and afterwards the session is idle again.
  EXPECT_EQ(harness.Offer(id, r, s), 4u);
  EXPECT_EQ(harness.Offer(id, r, s), 0u);
  EXPECT_EQ(harness.scheduler().stats().steps_shed, 4);
  EXPECT_EQ(harness.scheduler().RunRound(), 4);
  EXPECT_EQ(harness.Offer(id, empty, empty), 0u);
  EXPECT_EQ(harness.scheduler().RunRound(), 0);
  EXPECT_EQ(harness.scheduler().stats().rounds, 1);
  EXPECT_EQ(harness.scheduler().stats().steps_executed, 4);
}

TEST(SessionSchedulerTest, FinishingBacklogAboveQuotaClosesWhenDrained) {
  for (int threads : {1, 4}) {
    SessionScheduler::Options options;
    options.quota_unit = 4;
    options.threads = threads;
    Harness harness(options);
    const SessionId id = harness.Open(3);
    Rng rng(11);
    const std::vector<Value> r = SampleValues(10, 5, rng);
    const std::vector<Value> s = SampleValues(10, 5, rng);
    ASSERT_EQ(harness.Offer(id, r, s), 10u);
    harness.scheduler().Finish(id);

    for (const Time expected : {4, 4}) {
      EXPECT_EQ(harness.scheduler().RunRound(), expected);
      EXPECT_FALSE(harness.scheduler().closed(id));
    }
    EXPECT_EQ(harness.scheduler().RunRound(), 2);
    EXPECT_TRUE(harness.scheduler().closed(id));
    EXPECT_EQ(harness.scheduler().RunRound(), 0);
    EXPECT_EQ(harness.scheduler().stats().sessions_closed, 1);

    const auto [solo, solo_steps] = SoloRun(3, r, s);
    EXPECT_EQ(harness.scheduler().result(id).total_results,
              solo.total_results);
    EXPECT_EQ(harness.trace(id).steps(), solo_steps);
    EXPECT_EQ(harness.trace(id).end_length(), 10);
  }
}

TEST(SessionSchedulerTest, CallerMistakesAreRefusedWithAReason) {
  // A seeded mix of valid offers and every kind of caller mistake. The
  // process survives, every mistake accepts nothing and reports its
  // reason, and the valid sessions end exactly like solo runs.
  constexpr int kSessions = 3;
  constexpr Time kLen = 240;
  constexpr std::size_t kCapacity = 16;
  Rng rng(2005);
  std::vector<std::vector<Value>> r, s;
  for (int i = 0; i < kSessions; ++i) {
    r.push_back(SampleValues(kLen, 8, rng));
    s.push_back(SampleValues(kLen, 8, rng));
  }
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    Harness harness(WithThreads(threads));
    SessionScheduler& scheduler = harness.scheduler();
    std::vector<SessionId> ids;
    for (int i = 0; i < kSessions; ++i) ids.push_back(harness.Open(kCapacity));
    // A session that is finished before it is offered anything.
    const SessionId finished = harness.Open(kCapacity);
    EXPECT_EQ(scheduler.Finish(finished), nullptr);
    EXPECT_STREQ(scheduler.Finish(finished + 1), "unknown session id");
    EXPECT_STREQ(scheduler.Finish(-1), "unknown session id");

    std::vector<std::size_t> offered(kSessions, 0);
    std::set<std::string> reasons;
    std::int64_t mistakes = 0;
    std::int64_t valid_steps = 0;
    for (int done = 0; done < kSessions;) {
      const auto i = static_cast<std::size_t>(rng.UniformInt(0, kSessions - 1));
      if (offered[i] == static_cast<std::size_t>(kLen)) continue;
      const std::size_t take = std::min<std::size_t>(
          static_cast<std::size_t>(kLen) - offered[i],
          static_cast<std::size_t>(rng.UniformInt(1, 40)));
      const std::vector<Value> rs = Slice(r[i], offered[i], offered[i] + take);
      const std::vector<Value> ss = Slice(s[i], offered[i], offered[i] + take);
      const char* reason = "unset";
      const char* want = nullptr;
      std::size_t accepted = 0;
      switch (rng.UniformInt(0, 9)) {
        case 0:
          want = "unknown session id";
          accepted = scheduler.Offer(finished + 1 + static_cast<SessionId>(i),
                                     {&rs, &ss}, &reason);
          break;
        case 1:
          want = "unknown session id";
          accepted = scheduler.Offer(-1 - static_cast<SessionId>(i),
                                     {&rs, &ss}, &reason);
          break;
        case 2:
          want = "Offer after Finish";
          accepted = scheduler.Offer(finished, {&rs, &ss}, &reason);
          break;
        case 3:
          want = "row count does not match the stream count";
          accepted = scheduler.Offer(ids[i], {&rs}, &reason);
          break;
        case 4:
          want = "null row";
          accepted = scheduler.Offer(ids[i], {&rs, nullptr}, &reason);
          break;
        case 5: {
          want = "rows of unequal length";
          std::vector<Value> long_row = ss;
          long_row.push_back(0);
          accepted = scheduler.Offer(ids[i], {&rs, &long_row}, &reason);
          break;
        }
        default:
          accepted = scheduler.Offer(ids[i], {&rs, &ss}, &reason);
          break;
      }
      if (want != nullptr) {
        EXPECT_EQ(accepted, 0u);
        ASSERT_NE(reason, nullptr);
        EXPECT_STREQ(reason, want);
        reasons.insert(reason);
        ++mistakes;
      } else {
        EXPECT_EQ(reason, nullptr);
        EXPECT_EQ(accepted, take);
        offered[i] += take;
        valid_steps += static_cast<std::int64_t>(take);
        if (offered[i] == static_cast<std::size_t>(kLen)) {
          EXPECT_EQ(scheduler.Finish(ids[i]), nullptr);
          ++done;
        }
      }
      if (rng.UniformInt(0, 2) == 0) scheduler.RunRound();
    }
    scheduler.Drain();

    EXPECT_EQ(reasons.size(), 5u);
    EXPECT_EQ(scheduler.stats().offers_refused, mistakes);
    EXPECT_EQ(scheduler.stats().steps_offered, valid_steps);
    EXPECT_EQ(scheduler.stats().steps_shed, 0);
    ASSERT_TRUE(scheduler.closed(finished));
    EXPECT_EQ(scheduler.result(finished).total_results, 0);
    for (int i = 0; i < kSessions; ++i) {
      const auto [solo, solo_trace] = SoloRun(kCapacity, r[i], s[i]);
      ASSERT_TRUE(scheduler.closed(ids[i]));
      EXPECT_EQ(scheduler.result(ids[i]).total_results, solo.total_results);
      EXPECT_EQ(scheduler.result(ids[i]).counted_results,
                solo.counted_results);
      EXPECT_EQ(harness.trace(ids[i]).steps(), solo_trace);
    }
  }
}

TEST(SessionSchedulerTest, SliceOrderIgnoresOfferOrderAndThreads) {
  Rng rng(19);
  const std::vector<Value> r5 = SampleValues(40, 6, rng);
  const std::vector<Value> s5 = SampleValues(40, 6, rng);
  const std::vector<Value> r2 = SampleValues(30, 6, rng);
  const std::vector<Value> s2 = SampleValues(30, 6, rng);

  std::vector<std::vector<std::pair<SessionId, Time>>> slices;
  for (int threads : {1, 2, 4}) {
    SessionScheduler::Options options;
    options.quota_unit = 8;
    options.threads = threads;
    Harness harness(options);
    for (int i = 0; i < 6; ++i) harness.Open(4, 1 + i % 2);

    // Session 5 (weight 2) always offers before session 2 (weight 1), in
    // chunks larger than session 2's quota so its backlog carries over.
    for (std::size_t begin = 0; begin < 40; begin += 10) {
      harness.Offer(5, Slice(r5, begin, begin + 10),
                    Slice(s5, begin, begin + 10));
      if (begin < 30) {
        harness.Offer(2, Slice(r2, begin, begin + 10),
                      Slice(s2, begin, begin + 10));
      }
      harness.scheduler().RunRound();
    }
    harness.scheduler().Finish(5);
    harness.scheduler().Finish(2);
    for (SessionId id : {0, 1, 3, 4}) harness.scheduler().Finish(id);
    harness.scheduler().Drain();

    EXPECT_EQ(harness.scheduler().result(5).total_results,
              SoloRun(4, r5, s5).first.total_results);
    EXPECT_EQ(harness.scheduler().result(2).total_results,
              SoloRun(4, r2, s2).first.total_results);
    slices.push_back(harness.Slices());
  }
  // Rounds list session 2 before session 5 whatever the offer order.
  const std::vector<std::pair<SessionId, Time>> expected{
      {2, 8}, {5, 10}, {2, 8}, {5, 10}, {2, 8}, {5, 10},
      {2, 6}, {5, 10}};
  EXPECT_EQ(slices[0], expected);
  EXPECT_EQ(slices[1], expected);
  EXPECT_EQ(slices[2], expected);
}

TEST(SessionSchedulerTest, SliceOrderGroupsARoundByWorker) {
  // slice_latencies() lists a round's slices worker by worker: ready
  // session i runs on worker i % threads, so 2 workers over sessions 0-3
  // list 0, 2, 1, 3, while 1 worker lists them in id order.
  Rng rng(29);
  const std::vector<Value> r = SampleValues(12, 5, rng);
  const std::vector<Value> s = SampleValues(12, 5, rng);
  for (int threads : {1, 2}) {
    Harness harness(WithThreads(threads));
    for (int i = 0; i < 4; ++i) harness.Open(3);
    // Offers out of id order: the round still plans in id order.
    for (SessionId id : {3, 1, 0, 2}) {
      ASSERT_EQ(harness.Offer(id, Slice(r, 0, 6), Slice(s, 0, 6)), 6u);
    }
    EXPECT_EQ(harness.scheduler().RunRound(), 24);
    const std::vector<std::pair<SessionId, Time>> expected =
        threads == 1
            ? std::vector<std::pair<SessionId, Time>>{{0, 6}, {1, 6},
                                                      {2, 6}, {3, 6}}
            : std::vector<std::pair<SessionId, Time>>{{0, 6}, {2, 6},
                                                      {1, 6}, {3, 6}};
    EXPECT_EQ(harness.Slices(), expected) << threads;
  }
}

TEST(SessionSchedulerTest, OneSessionRoundTraceMatchesAcrossThreads) {
  Rng rng(23);
  const std::vector<Value> ra = SampleValues(60, 7, rng);
  const std::vector<Value> sa = SampleValues(60, 7, rng);
  const std::vector<Value> rb = SampleValues(20, 7, rng);
  const std::vector<Value> sb = SampleValues(20, 7, rng);

  std::vector<std::vector<StepTrace>> traces;
  for (int threads : {1, 4}) {
    SessionScheduler::Options options;
    options.quota_unit = 16;
    options.threads = threads;
    Harness harness(options);
    const SessionId a = harness.Open(5);
    const SessionId b = harness.Open(5);
    // Rounds 1-2 hold session a alone (inline at threads 4), rounds 3-4
    // fan a and b out together, and the tail is a alone again: the
    // session moves between the driver thread and the workers.
    ASSERT_EQ(harness.Offer(a, Slice(ra, 0, 30), Slice(sa, 0, 30)), 30u);
    EXPECT_EQ(harness.scheduler().RunRound(), 16);
    EXPECT_EQ(harness.scheduler().RunRound(), 14);
    ASSERT_EQ(harness.Offer(b, rb, sb), 20u);
    ASSERT_EQ(harness.Offer(a, Slice(ra, 30, 60), Slice(sa, 30, 60)), 30u);
    EXPECT_EQ(harness.scheduler().RunRound(), 32);
    EXPECT_EQ(harness.scheduler().RunRound(), 18);
    harness.scheduler().Finish(a);
    harness.scheduler().Finish(b);
    harness.scheduler().Drain();
    EXPECT_EQ(harness.trace(a).end_length(), 60);
    EXPECT_EQ(harness.trace(b).steps(), SoloRun(5, rb, sb).second);
    traces.push_back(harness.trace(a).steps());
  }
  EXPECT_EQ(traces[0], SoloRun(5, ra, sa).second);
  EXPECT_EQ(traces[1], traces[0]);
}

/// Records EngineStep::carried per step, a new run at each Reset, and
/// checks the flag's promise: when set, the cache is exactly the list the
/// policy returned at its previous step. It keeps the `capacity` candidates
/// with the largest ids in descending order (so the returned order is not
/// the candidate order) and reports its lanes on even steps only, so the
/// commit's lane path and its id path both run.
class CarriedFlagRecorder final : public EnginePolicy {
 public:
  const char* name() const override { return "CARRIED-FLAG-RECORDER"; }
  void Reset() override {
    runs_.emplace_back();
    last_.clear();
  }

  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    runs_.back().push_back(ctx.carried());
    std::vector<std::pair<TupleId, std::uint32_t>> candidates;
    std::uint32_t lane = 0;
    std::vector<TupleId> cached_ids;
    for (const StreamTuple& tuple : *ctx.cached) {
      cached_ids.push_back(tuple.id);
      candidates.emplace_back(tuple.id, lane++);
    }
    if (ctx.carried()) {
      EXPECT_EQ(cached_ids, last_) << "step " << ctx.now;
    }
    for (const StreamTuple& tuple : *ctx.arrivals) {
      candidates.emplace_back(tuple.id, lane++);
    }
    std::sort(candidates.begin(), candidates.end(), std::greater<>());
    candidates.resize(std::min(candidates.size(), ctx.capacity));
    last_.clear();
    for (const auto& [id, candidate_lane] : candidates) {
      last_.push_back(id);
      if (ctx.now % 2 == 0) ctx.retained_lanes()->push_back(candidate_lane);
    }
    return last_;
  }

  /// Every run so far saw the flag false on its first step only.
  void ExpectFlagFalseOnlyOnFirstSteps(std::size_t runs) const {
    ASSERT_EQ(runs_.size(), runs);
    for (const std::vector<bool>& run : runs_) {
      ASSERT_FALSE(run.empty());
      EXPECT_FALSE(run.front());
      EXPECT_EQ(std::count(run.begin(), run.end(), true),
                static_cast<std::ptrdiff_t>(run.size() - 1));
    }
  }

 private:
  std::vector<std::vector<bool>> runs_;
  std::vector<TupleId> last_;
};

TEST(CarriedFlagTest, SetOnEveryStepButTheFirstAcrossDrivers) {
  Rng rng(41);
  const std::vector<Value> r = SampleValues(300, 9, rng);
  const std::vector<Value> s = SampleValues(300, 9, rng);
  StreamEngine::Options options;
  options.capacity = 6;
  StreamEngine engine(StreamTopology::Binary(), options);

  // Batch Run, twice: each Run opens a fresh session.
  {
    CarriedFlagRecorder policy;
    engine.Run({&r, &s}, policy);
    engine.Run({&r, &s}, policy);
    policy.ExpectFlagFalseOnlyOnFirstSteps(2);
  }
  // Advance slices of 1, 2, ..., 37 steps, then a reopened session.
  {
    CarriedFlagRecorder policy;
    SessionState session;
    for (int pass = 0; pass < 2; ++pass) {
      engine.Open(session, options, policy);
      std::size_t begin = 0;
      for (std::size_t len = 1; begin < r.size(); len = len % 37 + 1) {
        const std::size_t end = std::min(r.size(), begin + len);
        const std::vector<Value> rs = Slice(r, begin, end);
        const std::vector<Value> ss = Slice(s, begin, end);
        engine.Advance(session, {&rs, &ss});
        begin = end;
      }
      const EngineRunResult sliced = engine.Close(session);
      EXPECT_EQ(sliced.total_results,
                engine.Run({&r, &s}, policy).total_results);
    }
    policy.ExpectFlagFalseOnlyOnFirstSteps(4);
  }
  // Scheduler rounds, inline and fanned out over 4 workers.
  for (int threads : {1, 4}) {
    SessionScheduler::Options scheduler_options;
    scheduler_options.quota_unit = 13;
    scheduler_options.threads = threads;
    SessionScheduler scheduler(StreamTopology::Binary(), scheduler_options);
    std::deque<CarriedFlagRecorder> policies(3);
    std::vector<SessionId> ids;
    for (CarriedFlagRecorder& policy : policies) {
      SessionConfig config;
      config.engine = options;
      config.policy = &policy;
      const Admission admission = scheduler.Open(config);
      ASSERT_TRUE(admission.ok());
      ids.push_back(admission.id);
    }
    for (std::size_t begin = 0; begin < r.size(); begin += 50) {
      const std::vector<Value> rs = Slice(r, begin, begin + 50);
      const std::vector<Value> ss = Slice(s, begin, begin + 50);
      for (SessionId id : ids) ASSERT_EQ(scheduler.Offer(id, {&rs, &ss}), 50u);
      scheduler.RunRound();
    }
    for (SessionId id : ids) scheduler.Finish(id);
    scheduler.Drain();
    for (const CarriedFlagRecorder& policy : policies) {
      policy.ExpectFlagFalseOnlyOnFirstSteps(1);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace sjoin
