#include "workloads.h"

#include <utility>

#include "sjoin/common/check.h"
#include "sjoin/common/rng.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace perfbench {
namespace {

using sjoin::DiscreteDistribution;
using sjoin::Time;
using sjoin::Value;

// The paper's TOWER configuration (Section 6.1): linear trends drifting at
// speed 1, R one step behind S, bounded normal noise with sd (1, 2) on
// [-10, 10] and [-15, 15].
std::unique_ptr<sjoin::StochasticProcess> TowerR() {
  return std::make_unique<sjoin::LinearTrendProcess>(
      1.0, -1.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.0, -10, 10));
}
std::unique_ptr<sjoin::StochasticProcess> TowerS() {
  return std::make_unique<sjoin::LinearTrendProcess>(
      1.0, 0.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -15, 15));
}
// WALK: two random walks with discretized N(0, 1) steps.
std::unique_ptr<sjoin::StochasticProcess> Walk() {
  return std::make_unique<sjoin::RandomWalkProcess>(
      DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
}

// TOWER's HEEB tuning: alpha from the average-lifetime estimate
// (wR + wS) / 2 and a 150-step horizon (Sections 5.3-5.4).
double TowerAlpha() {
  return sjoin::ExpLifetime::AlphaForAverageLifetime(12.5);
}
constexpr Time kTowerHorizon = 150;
constexpr Time kWalkHorizon = 80;
// Four distinct walk alphas around the cache size (Section 5.5 sets alpha
// to the cache size): four ModelRepo builds, every other lookup a hit.
constexpr double kWalkAlphas[] = {150.0, 200.0, 250.0, 300.0};

// serve-model's session mix, repeated eight times: 24 walk-table HEEB,
// 24 time-incremental HEEB and 16 caching-HEEB sessions, interleaved so
// every worker gets a mix.
constexpr SessionKind kModelPattern[] = {
    SessionKind::kHeebWalk, SessionKind::kHeebIncr, SessionKind::kEcb,
    SessionKind::kHeebWalk, SessionKind::kHeebIncr, SessionKind::kHeebWalk,
    SessionKind::kHeebIncr, SessionKind::kEcb};

std::vector<Value> UniformValues(Time len, Value domain, sjoin::Rng& rng) {
  std::vector<Value> out(static_cast<std::size_t>(len));
  for (Value& v : out) v = rng.UniformInt(0, domain - 1);
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeSmall, Workload::kServeModel,
                     Workload::kBatchStar5}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeSmall:
      return "serve-small";
    case Workload::kServeModel:
      return "serve-model";
    case Workload::kBatchStar5:
      return "batch-star5";
  }
  return "?";
}

const char* KindName(SessionKind kind) {
  switch (kind) {
    case SessionKind::kProb:
      return "prob";
    case SessionKind::kHeebWalk:
      return "heeb-walk";
    case SessionKind::kHeebIncr:
      return "heeb-incr";
    case SessionKind::kEcb:
      return "ecb";
  }
  return "?";
}

ServeShape ShapeOf(Workload workload) {
  ServeShape shape;
  if (workload == Workload::kServeSmall) {
    // serve_load's shape: PROB at capacity 16 on 12-value uniform streams.
    shape.capacity = 16;
    shape.warmup = 32;
    shape.nominal_steps_per_s = 150000.0;
    shape.offer_steps = 8;
    shape.check_steps = 256;
  } else {
    SJOIN_CHECK(workload == Workload::kServeModel);
    shape.capacity = 200;
    shape.warmup = 200;
    shape.nominal_steps_per_s = 6000.0;
    shape.offer_steps = 8;
    shape.check_steps = 600;
  }
  return shape;
}

ServeInputs SampleServeInputs(Workload workload, std::uint64_t seed,
                              Time len) {
  ServeInputs inputs;
  inputs.shape = ShapeOf(workload);
  sjoin::Rng rng(seed);
  if (workload == Workload::kServeSmall) {
    inputs.sessions.resize(1024);
    for (SessionInput& session : inputs.sessions) {
      session.kind = SessionKind::kProb;
      session.r = UniformValues(len, 12, rng);
      session.s = UniformValues(len, 12, rng);
    }
    return inputs;
  }
  const auto tower_r = TowerR();
  const auto tower_s = TowerS();
  const auto walk = Walk();
  int walks = 0;
  inputs.sessions.resize(64);
  for (std::size_t i = 0; i < inputs.sessions.size(); ++i) {
    SessionInput& session = inputs.sessions[i];
    session.kind = kModelPattern[i % std::size(kModelPattern)];
    switch (session.kind) {
      case SessionKind::kHeebWalk:
        session.alpha = kWalkAlphas[walks++ % std::size(kWalkAlphas)];
        session.r = sjoin::SampleRealization(*walk, len, rng);
        session.s = sjoin::SampleRealization(*walk, len, rng);
        break;
      case SessionKind::kHeebIncr:
        session.alpha = TowerAlpha();
        session.r = sjoin::SampleRealization(*tower_r, len, rng);
        session.s = sjoin::SampleRealization(*tower_s, len, rng);
        break;
      case SessionKind::kProb:
        SJOIN_CHECK_MSG(false, "serve-model has no PROB sessions");
        break;
      case SessionKind::kEcb:
        session.alpha = TowerAlpha();
        session.reduction = std::make_unique<sjoin::CachingReduction>(
            sjoin::SampleRealization(*tower_r, len, rng));
        session.r = session.reduction->r_stream();
        session.s = session.reduction->s_stream();
        break;
    }
  }
  return inputs;
}

SessionPolicy::SessionPolicy(const SessionInput& input,
                             sjoin::ModelRepo* repo, bool timed) {
  switch (input.kind) {
    case SessionKind::kProb:
      join_policy_ = std::make_unique<sjoin::ProbPolicy>();
      break;
    case SessionKind::kHeebWalk: {
      r_model_ = Walk();
      s_model_ = Walk();
      sjoin::HeebJoinPolicy::Options options;
      options.mode = sjoin::HeebJoinPolicy::Mode::kWalkTable;
      options.alpha = input.alpha;
      options.horizon = kWalkHorizon;
      options.repo = repo;
      join_policy_ = std::make_unique<sjoin::HeebJoinPolicy>(
          r_model_.get(), s_model_.get(), options);
      break;
    }
    case SessionKind::kHeebIncr: {
      r_model_ = TowerR();
      s_model_ = TowerS();
      sjoin::HeebJoinPolicy::Options options;
      options.mode = sjoin::HeebJoinPolicy::Mode::kTimeIncremental;
      options.alpha = input.alpha;
      options.horizon = kTowerHorizon;
      join_policy_ = std::make_unique<sjoin::HeebJoinPolicy>(
          r_model_.get(), s_model_.get(), options);
      break;
    }
    case SessionKind::kEcb: {
      SJOIN_CHECK(input.reduction != nullptr);
      r_model_ = TowerR();
      sjoin::HeebCachingPolicy::Options options;
      options.mode = sjoin::HeebCachingPolicy::Mode::kDirect;
      options.alpha = input.alpha;
      options.horizon = kTowerHorizon;
      caching_policy_ =
          std::make_unique<sjoin::HeebCachingPolicy>(r_model_.get(), options);
      join_policy_ = std::make_unique<sjoin::ReductionJoinPolicy>(
          input.reduction.get(), caching_policy_.get());
      break;
    }
  }
  adapter_ = std::make_unique<sjoin::BinaryPolicyAdapter>(join_policy_.get());
  if (timed) timed_ = std::make_unique<TimedPolicy>(adapter_.get());
}

SessionPolicy::~SessionPolicy() = default;

sjoin::EnginePolicy* SessionPolicy::engine_policy() {
  if (timed_ != nullptr) return timed_.get();
  return adapter_.get();
}

Star5Inputs SampleStar5Inputs(std::uint64_t seed) {
  Star5Inputs inputs;
  // perf_smoke's multi-way trends: staggered intercepts and a shared +/-8
  // noise band, so every edge sees a dense overlap of values.
  for (int s = 0; s < inputs.shape.num_streams; ++s) {
    inputs.models.push_back(std::make_unique<sjoin::LinearTrendProcess>(
        1.0, -0.5 * s,
        DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -8, 8)));
    inputs.model_ptrs.push_back(inputs.models.back().get());
  }
  sjoin::Rng rng(seed);
  inputs.realizations.resize(
      static_cast<std::size_t>(inputs.shape.realizations));
  for (auto& streams : inputs.realizations) {
    for (const sjoin::StochasticProcess* model : inputs.model_ptrs) {
      streams.push_back(
          sjoin::SampleRealization(*model, inputs.shape.job_steps, rng));
    }
  }
  return inputs;
}

}  // namespace perfbench
