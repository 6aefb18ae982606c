// The session lifecycle carved out of the engines: Open + Advance + Close
// must reproduce Run bit for bit no matter how a stream is sliced into
// batches, sessions must be portable across engines and interleavable
// through one engine, and a closed session must reopen cleanly.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"

namespace sjoin {
namespace {

std::vector<Value> SampleValues(Time len, Value domain, Rng& rng) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    out.push_back(rng.UniformInt(0, domain - 1));
  }
  return out;
}

/// Deep per-step trace: everything the observer protocol exposes that is
/// deterministic, cache content included, so a mismatch anywhere in the
/// step loop shows up as a trace difference.
struct StepTrace {
  Time now = 0;
  std::int64_t produced = 0;
  bool counted = false;
  std::size_t num_candidates = 0;
  std::vector<TupleId> cache_ids;
  std::vector<TupleId> retained;

  friend bool operator==(const StepTrace&, const StepTrace&) = default;
};

class TraceObserver final : public StepObserver {
 public:
  void OnRunBegin(const EngineRunView& run) override {
    begin_length_ = run.length;
  }
  void OnStep(const EngineStepView& step) override {
    StepTrace trace;
    trace.now = step.now;
    trace.produced = step.produced;
    trace.counted = step.counted;
    trace.num_candidates = step.num_candidates;
    for (const StreamTuple& tuple : *step.cache) {
      trace.cache_ids.push_back(tuple.id);
    }
    trace.retained = *step.retained;
    steps_.push_back(std::move(trace));
  }
  void OnRunEnd(const EngineRunView& run) override {
    end_length_ = run.length;
  }

  const std::vector<StepTrace>& steps() const { return steps_; }
  Time begin_length() const { return begin_length_; }
  Time end_length() const { return end_length_; }

 private:
  std::vector<StepTrace> steps_;
  Time begin_length_ = -2;
  Time end_length_ = -2;
};

/// Slices `streams` into consecutive Advance batches of the given sizes
/// (the last batch takes whatever remains; zero-length batches allowed).
void AdvanceInSlices(StreamEngine& engine, SessionState& session,
                     const std::vector<std::vector<Value>>& streams,
                     const std::vector<Time>& slice_sizes) {
  const Time len = static_cast<Time>(streams[0].size());
  Time offset = 0;
  std::size_t slice = 0;
  while (offset < len) {
    Time take = slice < slice_sizes.size() ? slice_sizes[slice]
                                           : len - offset;
    take = std::min(take, len - offset);
    std::vector<std::vector<Value>> chunk;
    std::vector<const std::vector<Value>*> chunk_ptrs;
    for (const std::vector<Value>& stream : streams) {
      chunk.emplace_back(
          stream.begin() + static_cast<std::ptrdiff_t>(offset),
          stream.begin() + static_cast<std::ptrdiff_t>(offset + take));
    }
    for (const std::vector<Value>& c : chunk) chunk_ptrs.push_back(&c);
    engine.Advance(session, chunk_ptrs);
    offset += take;
    ++slice;
  }
}

TEST(SessionStateTest, AdvanceSlicingMatchesBatchRun) {
  Rng rng(21);
  // Capacities straddle kValueIndexMinCapacity; the windowed variant
  // keeps the linear probe.
  for (std::size_t capacity : {std::size_t{4}, std::size_t{48}}) {
    for (int windowed = 0; windowed < 2; ++windowed) {
      std::vector<std::vector<Value>> streams{SampleValues(257, 9, rng),
                                              SampleValues(257, 9, rng)};
      StreamEngine::Options options;
      options.capacity = capacity;
      options.warmup = 30;
      if (windowed != 0) options.window = 11;

      ProbPolicy prob;
      BinaryPolicyAdapter batch_adapter(&prob);
      StreamEngine batch_engine(StreamTopology::Binary(), options);
      TraceObserver batch_trace;
      EngineRunResult batch = batch_engine.Run(
          {&streams[0], &streams[1]}, batch_adapter, {&batch_trace});
      EXPECT_EQ(batch_trace.begin_length(), 257);
      EXPECT_EQ(batch_trace.end_length(), 257);

      for (const std::vector<Time>& slices :
           {std::vector<Time>{1}, std::vector<Time>{7, 0, 64},
            std::vector<Time>{256}, std::vector<Time>{257}}) {
        ProbPolicy session_prob;
        BinaryPolicyAdapter adapter(&session_prob);
        StreamEngine engine(StreamTopology::Binary(), options);
        TraceObserver trace;
        SessionState session;
        engine.Open(session, options, adapter, {&trace});
        EXPECT_EQ(trace.begin_length(), -1);  // Length unknown up front.
        AdvanceInSlices(engine, session, streams, slices);
        EXPECT_EQ(engine.Drain(session).total_results,
                  batch.total_results);
        EngineRunResult result = engine.Close(session);
        EXPECT_EQ(result.total_results, batch.total_results);
        EXPECT_EQ(result.counted_results, batch.counted_results);
        EXPECT_EQ(trace.end_length(), 257);
        EXPECT_EQ(trace.steps(), batch_trace.steps());
      }
    }
  }
}

TEST(SessionStateTest, SessionIsPortableAcrossEngines) {
  Rng rng(5);
  std::vector<std::vector<Value>> streams{SampleValues(200, 8, rng),
                                          SampleValues(200, 8, rng)};
  StreamEngine::Options options{.capacity = 40, .warmup = 10};

  ProbPolicy batch_prob;
  BinaryPolicyAdapter batch_adapter(&batch_prob);
  EngineRunResult batch = StreamEngine(StreamTopology::Binary(), options)
                              .Run({&streams[0], &streams[1]},
                                   batch_adapter);

  // First half on engine a, second half on engine b: the session carries
  // all per-run state, the engines only execute.
  StreamEngine a(StreamTopology::Binary(), options);
  StreamEngine b(StreamTopology::Binary(), options);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);
  SessionState session;
  a.Open(session, options, adapter);
  std::vector<std::vector<Value>> front, back;
  for (const std::vector<Value>& stream : streams) {
    front.emplace_back(stream.begin(), stream.begin() + 100);
    back.emplace_back(stream.begin() + 100, stream.end());
  }
  a.Advance(session, {&front[0], &front[1]});
  b.Advance(session, {&back[0], &back[1]});
  EngineRunResult result = b.Close(session);
  EXPECT_EQ(result.total_results, batch.total_results);
  EXPECT_EQ(result.counted_results, batch.counted_results);
}

TEST(SessionStateTest, InterleavedSessionsShareOneEngine) {
  Rng rng(77);
  // Three sessions with different capacities/policies advanced
  // round-robin in uneven chunks through a single engine.
  constexpr int kSessions = 3;
  std::vector<std::vector<std::vector<Value>>> streams;
  std::vector<StreamEngine::Options> options;
  for (int i = 0; i < kSessions; ++i) {
    streams.push_back({SampleValues(180, 7, rng), SampleValues(180, 7, rng)});
    options.push_back({.capacity = std::size_t{4} * (i + 1) * (i + 1),
                       .warmup = Time{5} * i});
  }

  std::vector<EngineRunResult> solo;
  for (int i = 0; i < kSessions; ++i) {
    RandomPolicy policy(100 + i, std::nullopt);
    BinaryPolicyAdapter adapter(&policy);
    solo.push_back(StreamEngine(StreamTopology::Binary(), options[i])
                       .Run({&streams[i][0], &streams[i][1]}, adapter));
  }

  StreamEngine engine(StreamTopology::Binary(), {});
  std::vector<RandomPolicy> policies;
  policies.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    policies.emplace_back(100 + i, std::nullopt);
  }
  std::vector<BinaryPolicyAdapter> adapters;
  adapters.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) adapters.emplace_back(&policies[i]);
  std::vector<SessionState> sessions(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    engine.Open(sessions[i], options[i], adapters[i]);
  }
  // Uneven interleave: session i advances in chunks of 13 + 5 i.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int i = 0; i < kSessions; ++i) {
      const Time done = sessions[i].now;
      const Time len = static_cast<Time>(streams[i][0].size());
      if (done >= len) continue;
      const Time take = std::min<Time>(13 + 5 * i, len - done);
      std::vector<std::vector<Value>> chunk;
      for (const std::vector<Value>& stream : streams[i]) {
        chunk.emplace_back(
            stream.begin() + static_cast<std::ptrdiff_t>(done),
            stream.begin() + static_cast<std::ptrdiff_t>(done + take));
      }
      engine.Advance(sessions[i], {&chunk[0], &chunk[1]});
      progressed = true;
    }
  }
  for (int i = 0; i < kSessions; ++i) {
    EngineRunResult result = engine.Close(sessions[i]);
    EXPECT_EQ(result.total_results, solo[i].total_results) << i;
    EXPECT_EQ(result.counted_results, solo[i].counted_results) << i;
  }
}

TEST(SessionStateTest, ClosedSessionReopensAndMatchesRun) {
  Rng rng(61);
  std::vector<std::vector<Value>> streams{SampleValues(150, 6, rng),
                                          SampleValues(150, 6, rng)};
  StreamEngine::Options options{.capacity = 12};

  // RandomPolicy draws per step, so a session that skipped or repeated a
  // decision would drift from the batch run.
  RandomPolicy batch_policy(9, std::nullopt);
  BinaryPolicyAdapter batch_adapter(&batch_policy);
  EngineRunResult batch = StreamEngine(StreamTopology::Binary(), options)
                              .Run({&streams[0], &streams[1]},
                                   batch_adapter);

  StreamEngine engine(StreamTopology::Binary(), options);
  SessionState session;
  for (int pass = 0; pass < 2; ++pass) {
    // The second pass reopens the closed session and reuses its buffers.
    RandomPolicy policy(9, std::nullopt);
    BinaryPolicyAdapter adapter(&policy);
    engine.Open(session, options, adapter);
    engine.Advance(session, {&streams[0], &streams[1]});
    EngineRunResult result = engine.Close(session);
    EXPECT_EQ(result.total_results, batch.total_results) << pass;
    EXPECT_EQ(result.counted_results, batch.counted_results) << pass;
  }
}

}  // namespace
}  // namespace sjoin
