// Long served sessions against solo runs and naive oracles. Every history
// in the engines keeps only its last StreamHistory::kTail values, so a
// session that runs for many times kTail steps exercises every reader of
// x̄_{t0} after the tail has wrapped over and over. Each session kind
// that reads histories is served through a SessionScheduler at 1 and 4
// workers in irregular slices, run solo through StreamEngine::Run, and
// through an oracle. Every run's fingerprint (counted results plus a hash
// of every step's retained ids) must agree.
//
// The oracles for the frequency policies (PROB, LIFE, MULTI-PROB) count
// values straight from the realization vectors, never through a
// StreamHistory, so a history that returns a wrong tail value cannot
// agree with them. The binary model policies' oracle is
// NaiveJoinSimulator (fresh containers, linear scans, no engine) driving
// a twin policy; ECB through the Theorem 1 reduction is also checked
// against the direct caching loop, whose hits must equal the reduced
// join's results. EDGE-BUDGET has no oracle apart from the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/multi/multi_baseline_policies.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/policies/edge_budget_policy.h"
#include "sjoin/policies/life_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/serve/session_scheduler.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stream_history.h"
#include "sjoin/stochastic/stream_sampler.h"
#include "sjoin/testing/naive_simulator.h"

namespace sjoin {
namespace {

/// Steps per session: 50 tails and an odd remainder.
constexpr Time kLen = 50 * StreamHistory::kTail + 37;

// ---------------------------------------------------------------------------
// Fingerprints.

struct Fingerprint {
  std::int64_t counted = 0;
  std::uint64_t trace = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::ostream& operator<<(std::ostream& out, const Fingerprint& f) {
  return out << "{counted " << f.counted << ", trace " << f.trace << "}";
}

/// Folds one step's time and retained ids (in policy order) into `hash`.
void HashStep(Time now, const std::vector<TupleId>& retained,
              std::uint64_t* hash) {
  auto mix = [hash](std::uint64_t x) {
    *hash ^= x + 0x9e3779b97f4a7c15ULL + (*hash << 6) + (*hash >> 2);
  };
  mix(static_cast<std::uint64_t>(now));
  for (TupleId id : retained) mix(static_cast<std::uint64_t>(id));
}

class TraceHash final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    HashStep(step.now, *step.retained, &hash_);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0;
};

/// Hashes a binary policy's decisions for the naive simulator, which has
/// no observers.
class HashingPolicy final : public ReplacementPolicy {
 public:
  explicit HashingPolicy(ReplacementPolicy* policy) : policy_(policy) {}
  void Reset() override {
    policy_->Reset();
    hash_ = 0;
  }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> retained = policy_->SelectRetained(ctx);
    HashStep(ctx.now, retained, &hash_);
    return retained;
  }
  const char* name() const override { return policy_->name(); }
  std::uint64_t hash() const { return hash_; }

 private:
  ReplacementPolicy* policy_;
  std::uint64_t hash_ = 0;
};

// ---------------------------------------------------------------------------
// Frequency oracles that read the realization, not a StreamHistory.

/// Value counts of streams[s][0..now], folded one step at a time.
class RawCounts {
 public:
  explicit RawCounts(std::vector<const std::vector<Value>*> streams)
      : streams_(std::move(streams)) {}
  void Reset() {
    counts_.assign(streams_.size(), {});
    seen_ = 0;
  }
  void FoldThrough(Time now) {
    for (; seen_ <= now; ++seen_) {
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        ++counts_[s][(*streams_[s])[static_cast<std::size_t>(seen_)]];
      }
    }
  }
  /// Observed relative frequency of `v` on stream s.
  double Frequency(int s, Value v) const {
    const auto& counts = counts_[static_cast<std::size_t>(s)];
    auto it = counts.find(v);
    const std::int64_t count = it == counts.end() ? 0 : it->second;
    return seen_ == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(seen_);
  }

 private:
  std::vector<const std::vector<Value>*> streams_;
  std::vector<std::map<Value, std::int64_t>> counts_;
  Time seen_ = 0;
};

/// PROB (optionally LIFE: frequency times remaining lifetime) over raw
/// binary streams.
class RawFrequencyPolicy final : public ScoredPolicy {
 public:
  RawFrequencyPolicy(const std::vector<Value>* r, const std::vector<Value>* s,
                     std::optional<Time> life)
      : counts_({r, s}), life_(life) {}
  void Reset() override { counts_.Reset(); }
  const char* name() const override { return "RAW-FREQUENCY"; }

 protected:
  void BeginStep(const PolicyContext& ctx) override {
    counts_.FoldThrough(ctx.now);
  }
  double Score(const Tuple& tuple, std::uint32_t /*lane*/,
               const PolicyContext& ctx) override {
    const double freq =
        counts_.Frequency(SideIndex(Partner(tuple.side)), tuple.value);
    if (!life_.has_value()) {
      return InWindow(tuple, ctx.now, ctx.window) ? freq : -1.0;
    }
    Time lifetime = *life_;
    if (ctx.window.has_value()) lifetime = std::min(lifetime, *ctx.window);
    const Time remaining = lifetime - (ctx.now - tuple.arrival);
    if (remaining <= 0) return -1.0;
    return freq * static_cast<double>(remaining);
  }

 private:
  RawCounts counts_;
  std::optional<Time> life_;
};

/// MULTI-PROB over raw streams: Σ over partners of the partner's observed
/// frequency of the tuple's value.
class RawMultiProbPolicy final : public EnginePolicy {
 public:
  RawMultiProbPolicy(const StreamTopology* topology,
                     std::vector<const std::vector<Value>*> streams)
      : topology_(topology), counts_(std::move(streams)) {}
  void Reset() override { counts_.Reset(); }
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    counts_.FoldThrough(ctx.now);
    std::vector<RankedTuple> ranked;
    auto add = [&](const StreamTuple& tuple) {
      double sum = 0.0;
      if (InWindow(tuple, ctx.now, ctx.window)) {
        for (int partner : topology_->PartnersOf(tuple.stream)) {
          sum += counts_.Frequency(partner, tuple.value);
        }
      } else {
        sum = -1.0;
      }
      ranked.push_back({sum, tuple.arrival, tuple.id});
    };
    for (const StreamTuple& tuple : *ctx.cached) add(tuple);
    for (const StreamTuple& tuple : *ctx.arrivals) add(tuple);
    return KeepBestRanked(std::move(ranked), ctx.capacity);
  }
  const char* name() const override { return "RAW-MULTI-PROB"; }

 private:
  const StreamTopology* topology_;
  RawCounts counts_;
};

// ---------------------------------------------------------------------------
// Session roster.

std::vector<Value> Uniform(Value domain, Rng& rng) {
  std::vector<Value> out(static_cast<std::size_t>(kLen));
  for (Value& v : out) v = rng.UniformInt(0, domain - 1);
  return out;
}

std::unique_ptr<StochasticProcess> Walk() {
  return std::make_unique<RandomWalkProcess>(
      DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
}

std::unique_ptr<StochasticProcess> Trend(double intercept, double sd,
                                         Value bound) {
  return std::make_unique<LinearTrendProcess>(
      1.0, intercept,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, sd, -bound,
                                                       bound));
}

/// One instance of a session's policy with everything it borrows. Every
/// call of a session's factory builds an independent twin: policies are
/// stateful.
struct Twin {
  /// The caching policy under the Theorem 1 reduction, if any.
  std::unique_ptr<CachingPolicy> caching;
  /// The binary policy behind `engine`, if any.
  std::unique_ptr<ReplacementPolicy> binary;
  /// What the engines run.
  std::unique_ptr<EnginePolicy> engine;
};

Twin BinaryTwin(std::unique_ptr<ReplacementPolicy> binary,
                std::unique_ptr<CachingPolicy> caching = nullptr) {
  Twin twin;
  twin.caching = std::move(caching);
  twin.binary = std::move(binary);
  twin.engine = std::make_unique<BinaryPolicyAdapter>(twin.binary.get());
  return twin;
}

struct Session {
  std::string label;
  StreamEngine::Options options;
  std::vector<const std::vector<Value>*> rows;
  std::function<Twin()> make;
  /// Runs the session's oracle and returns its fingerprint; null where
  /// no oracle exists apart from the engine itself.
  std::function<Fingerprint()> oracle;
};

/// Sessions capture their own address, so the roster never moves them.
using Roster = std::deque<Session>;

Fingerprint EngineFingerprint(const StreamTopology& topology,
                              const Session& session, EnginePolicy& policy) {
  TraceHash trace;
  StreamEngine engine(topology, session.options);
  const EngineRunResult run = engine.Run(session.rows, policy, {&trace});
  return {run.counted_results, trace.hash()};
}

/// A binary session's run through NaiveJoinSimulator under `policy`.
Fingerprint NaiveFingerprint(const Session& session,
                             ReplacementPolicy& policy) {
  JoinSimulator::Options options;
  options.capacity = session.options.capacity;
  options.warmup = session.options.warmup;
  HashingPolicy hashing(&policy);
  const JoinRunResult run = testing::NaiveJoinSimulator(options).Run(
      *session.rows[0], *session.rows[1], hashing);
  return {run.counted_results, hashing.hash()};
}

/// Elements [begin, begin + take) of every row, and pointers to them.
struct RowSlice {
  std::vector<std::vector<Value>> rows;
  std::vector<const std::vector<Value>*> ptrs;
};

RowSlice SliceRows(const std::vector<const std::vector<Value>*>& rows,
                   std::size_t begin, std::size_t take) {
  RowSlice slice;
  slice.rows.reserve(rows.size());
  for (const std::vector<Value>* row : rows) {
    const auto first = row->begin() + static_cast<std::ptrdiff_t>(begin);
    slice.rows.emplace_back(first, first + static_cast<std::ptrdiff_t>(take));
    slice.ptrs.push_back(&slice.rows.back());
  }
  return slice;
}

/// Runs every session solo through StreamEngine::Run, through its oracle,
/// and served through a SessionScheduler at 1 and 4 workers. Each session
/// offers random 1..97-step chunks, one round runs after each pass over
/// the roster, and the quota unit (13) and weights (1..3) cut the chunks
/// into further irregular slices. Every fingerprint
/// must equal the solo one, which must count results.
void ExpectAllAgree(const StreamTopology& topology, const Roster& roster) {
  const std::size_t n = roster.size();
  Rng rng(topology.num_streams());
  std::vector<Fingerprint> solo(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Session& session = roster[i];
    SCOPED_TRACE(session.label);
    {
      Twin twin = session.make();
      solo[i] = EngineFingerprint(topology, session, *twin.engine);
      // A fingerprint that reads 0 could not tell a broken history apart.
      EXPECT_GT(solo[i].counted, 0);
    }
    if (session.oracle) {
      EXPECT_EQ(session.oracle(), solo[i]) << "oracle";
    }
  }

  for (int workers : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    serve::SessionScheduler::Options options;
    options.max_sessions = n;
    // Everything offered is admitted, so each session serves exactly its
    // planned realization.
    options.queue_capacity = static_cast<std::size_t>(kLen);
    options.quota_unit = 13;
    options.threads = workers;
    serve::SessionScheduler scheduler(topology, options);
    std::vector<Twin> twins;
    std::vector<TraceHash> traces(n);
    std::vector<serve::SessionId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      twins.push_back(roster[i].make());
      serve::SessionConfig config;
      config.engine = roster[i].options;
      config.policy = twins.back().engine.get();
      config.observers = {&traces[i]};
      config.weight = 1 + static_cast<int>(i % 3);
      const serve::Admission admission = scheduler.Open(config);
      ASSERT_TRUE(admission.ok());
      ids.push_back(admission.id);
    }
    std::vector<std::size_t> offered(n, 0);
    for (bool pending = true; pending;) {
      pending = false;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = roster[i].rows[0]->size();
        if (offered[i] == len) continue;
        const std::size_t take =
            std::min(len - offered[i],
                     static_cast<std::size_t>(rng.UniformInt(1, 97)));
        ASSERT_EQ(scheduler.Offer(
                      ids[i], SliceRows(roster[i].rows, offered[i], take).ptrs),
                  take);
        offered[i] += take;
        if (offered[i] == len) {
          scheduler.Finish(ids[i]);
        } else {
          pending = true;
        }
      }
      scheduler.RunRound();
    }
    scheduler.Drain();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(scheduler.closed(ids[i]));
      EXPECT_EQ((Fingerprint{scheduler.result(ids[i]).counted_results,
                             traces[i].hash()}),
                solo[i])
          << roster[i].label << " served";
    }
  }
}

class LongSessionTest : public ::testing::Test {
 protected:
  /// Keeps a realization alive for the test; deque slots never move.
  const std::vector<Value>* Keep(std::vector<Value> values) {
    return &streams_.emplace_back(std::move(values));
  }

  std::deque<std::vector<Value>> streams_;
};

TEST_F(LongSessionTest, BinarySessionsMatchSoloServedAndOracles) {
  const auto r_walk = Walk();
  const auto s_walk = Walk();
  const auto tower_r = Trend(-1.0, 1.0, 10);
  const auto tower_s = Trend(0.0, 2.0, 15);
  const double tower_alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
  Rng rng(20241019);
  Roster roster;

  // Frequency policies: the oracle counts the raw realization.
  for (const std::optional<Time> life : {std::optional<Time>(),
                                         std::optional<Time>(24)}) {
    Session& session = roster.emplace_back();
    session.label = life.has_value() ? "LIFE" : "PROB";
    session.options = {.capacity = 12, .warmup = 32};
    session.rows = {Keep(Uniform(12, rng)), Keep(Uniform(12, rng))};
    session.make = [life] {
      if (life.has_value()) {
        return BinaryTwin(std::make_unique<LifePolicy>(*life));
      }
      return BinaryTwin(std::make_unique<ProbPolicy>());
    };
    session.oracle = [&session, life] {
      RawFrequencyPolicy raw(session.rows[0], session.rows[1], life);
      return NaiveFingerprint(session, raw);
    };
  }

  // Model policies: the oracle is a twin under NaiveJoinSimulator.
  auto naive_twin = [](const Session& session) {
    return [&session] {
      Twin twin = session.make();
      return NaiveFingerprint(session, *twin.binary);
    };
  };
  {
    Session& walk = roster.emplace_back();
    walk.label = "HEEB-walk";
    walk.options = {.capacity = 24, .warmup = 40};
    walk.rows = {Keep(SampleRealization(*r_walk, kLen, rng)),
                 Keep(SampleRealization(*s_walk, kLen, rng))};
    walk.make = [&r_walk, &s_walk] {
      HeebJoinPolicy::Options options;
      options.mode = HeebJoinPolicy::Mode::kWalkTable;
      options.alpha = 24.0;
      options.horizon = 40;
      return BinaryTwin(std::make_unique<HeebJoinPolicy>(
          r_walk.get(), s_walk.get(), options));
    };
    walk.oracle = naive_twin(walk);
  }
  {
    Session& incr = roster.emplace_back();
    incr.label = "HEEB-time-incr";
    incr.options = {.capacity = 20, .warmup = 40};
    incr.rows = {Keep(SampleRealization(*tower_r, kLen, rng)),
                 Keep(SampleRealization(*tower_s, kLen, rng))};
    incr.make = [&tower_r, &tower_s, tower_alpha] {
      HeebJoinPolicy::Options options;
      options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
      options.alpha = tower_alpha;
      options.horizon = 60;
      return BinaryTwin(std::make_unique<HeebJoinPolicy>(
          tower_r.get(), tower_s.get(), options));
    };
    incr.oracle = naive_twin(incr);
  }
  const std::vector<Value>* references =
      Keep(SampleRealization(*tower_r, kLen, rng));
  const CachingReduction reduction(*references);
  {
    Session& ecb = roster.emplace_back();
    ecb.label = "ECB";
    ecb.options = {.capacity = 16, .warmup = 40};
    ecb.rows = {&reduction.r_stream(), &reduction.s_stream()};
    ecb.make = [&tower_r, tower_alpha, &reduction] {
      HeebCachingPolicy::Options options;
      options.mode = HeebCachingPolicy::Mode::kDirect;
      options.alpha = tower_alpha;
      options.horizon = 60;
      auto caching = std::make_unique<HeebCachingPolicy>(tower_r.get(),
                                                         options);
      auto join =
          std::make_unique<ReductionJoinPolicy>(&reduction, caching.get());
      return BinaryTwin(std::move(join), std::move(caching));
    };
    ecb.oracle = [&ecb, references] {
      Twin twin = ecb.make();
      const Fingerprint naive = NaiveFingerprint(ecb, *twin.binary);
      // Theorem 1: the direct caching loop's hits are the reduced join's
      // results.
      CacheSimulator::Options options;
      options.capacity = ecb.options.capacity;
      options.warmup = ecb.options.warmup;
      EXPECT_EQ(testing::NaiveCacheSimulator(options)
                    .Run(*references, *twin.caching)
                    .counted_hits,
                naive.counted)
          << "direct caching loop";
      return naive;
    };
  }
  ExpectAllAgree(StreamTopology::Binary(), roster);
}

TEST_F(LongSessionTest, MultiWaySessionsMatchSoloServedAndOracles) {
  // A 3-way star: stream 0 joins streams 1 and 2.
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {0, 2}};
  const StreamTopology topology(3, edges);
  const MultiJoinSimulator facade(3, edges, {.capacity = 12});
  std::vector<std::unique_ptr<StochasticProcess>> walks;
  std::vector<const StochasticProcess*> walk_ptrs;
  for (int s = 0; s < 3; ++s) {
    walks.push_back(Walk());
    walk_ptrs.push_back(walks.back().get());
  }
  Rng rng(777);
  Roster roster(2);

  Session& prob = roster[0];
  prob.label = "MULTI-PROB";
  prob.options = {.capacity = 12, .warmup = 24};
  for (int s = 0; s < 3; ++s) prob.rows.push_back(Keep(Uniform(10, rng)));
  prob.make = [&facade] {
    Twin twin;
    twin.engine = std::make_unique<MultiProbPolicy>(
        &facade, MultiProbPolicy::Options{});
    return twin;
  };
  prob.oracle = [&prob, &topology] {
    RawMultiProbPolicy raw(&topology, prob.rows);
    return EngineFingerprint(topology, prob, raw);
  };

  Session& budget = roster[1];
  budget.label = "EDGE-BUDGET";
  budget.options = {.capacity = 18, .warmup = 24};
  for (const auto& walk : walks) {
    budget.rows.push_back(Keep(SampleRealization(*walk, kLen, rng)));
  }
  budget.make = [&walk_ptrs, &topology] {
    Twin twin;
    twin.engine = std::make_unique<EdgeBudgetPolicy>(
        walk_ptrs, &topology,
        EdgeBudgetPolicy::Options{
            .alpha = 12.0, .horizon = 24, .realloc_interval = 37});
    return twin;
  };
  // No naive multi-way simulator exists: the solo serial run is the
  // reference the served runs must reproduce.
  ExpectAllAgree(topology, roster);
}

}  // namespace
}  // namespace sjoin
