#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/core/model_repo.h"
#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/stochastic/process.h"
#include "timed_policy.h"

/// \file
/// The benchmark's workloads: their fixed shapes, the pre-sampled inputs
/// (generated from the run's seed, outside every timed region) and the
/// per-session policy stacks. README.md explains why each was chosen.

namespace perfbench {

enum class Workload { kServeSmall, kServeModel, kBatchStar5 };

/// Parses "serve-small" / "serve-model" / "batch-star5".
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// What one served session runs.
enum class SessionKind { kProb, kHeebWalk, kHeebIncr, kEcb };
inline constexpr int kNumSessionKinds = 4;
/// "prob", "heeb-walk", "heeb-incr", "ecb" (the per-layer metric suffix).
const char* KindName(SessionKind kind);

/// Fixed shape of a serve workload.
struct ServeShape {
  std::size_t capacity = 0;
  sjoin::Time warmup = 0;
  sjoin::Time quota_unit = 32;
  /// Scheduler workers; the benchmark host has four cores.
  int workers = 4;
  /// Open-loop aggregate arrival rate of the nominal phase, steps/s: a
  /// sixth to a seventh of the measured four-worker saturation rate. At a
  /// third, a few percent of CPU time stolen by other guests of a shared
  /// host pushed the rounds into a backlog they did not leave.
  double nominal_steps_per_s = 0.0;
  /// Steps per nominal offer (one session's arrival batch).
  sjoin::Time offer_steps = 8;
  /// Steps each session serves in the untimed check pass.
  sjoin::Time check_steps = 0;
};

/// One session's pre-sampled arrivals. ECB sessions serve the Theorem 1
/// reduction's two streams, built from a TOWER reference sequence.
struct SessionInput {
  SessionKind kind = SessionKind::kProb;
  /// HEEB L_exp parameter (HEEB and ECB kinds).
  double alpha = 0.0;
  std::vector<sjoin::Value> r;
  std::vector<sjoin::Value> s;
  /// ECB only: the reduction the served streams came from.
  std::unique_ptr<sjoin::CachingReduction> reduction;
};

struct ServeInputs {
  ServeShape shape;
  std::vector<SessionInput> sessions;
};

/// Samples every session's realization of `len` steps from `seed`.
ServeInputs SampleServeInputs(Workload workload, std::uint64_t seed,
                              sjoin::Time len);

/// The fixed shape of `workload` (a serve workload).
ServeShape ShapeOf(Workload workload);

/// A session's policy stack: model processes, the policy, the binary
/// adapter the engine drives and, when timed, the TimedPolicy decorator on
/// top. Addresses are handed to the scheduler, so it is neither copied
/// nor moved.
class SessionPolicy {
 public:
  /// `repo` (not owned) serves the walk-table HEEB artifacts.
  SessionPolicy(const SessionInput& input, sjoin::ModelRepo* repo,
                bool timed);
  ~SessionPolicy();
  SessionPolicy(const SessionPolicy&) = delete;
  SessionPolicy& operator=(const SessionPolicy&) = delete;

  sjoin::EnginePolicy* engine_policy();
  /// Null unless constructed timed.
  TimedPolicy* timed() { return timed_.get(); }

 private:
  std::unique_ptr<sjoin::StochasticProcess> r_model_;
  std::unique_ptr<sjoin::StochasticProcess> s_model_;
  std::unique_ptr<sjoin::CachingPolicy> caching_policy_;
  std::unique_ptr<sjoin::ReplacementPolicy> join_policy_;
  std::unique_ptr<sjoin::BinaryPolicyAdapter> adapter_;
  std::unique_ptr<TimedPolicy> timed_;
};

/// The STAR5 linear-trend workload run through MultiJoinSimulator.
struct Star5Shape {
  int num_streams = 5;
  std::vector<std::pair<int, int>> edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  std::size_t capacity = 100;
  sjoin::Time warmup = 100;
  /// Steps per façade Run (one batch job).
  sjoin::Time job_steps = 300;
  /// Distinct realizations; the measured jobs run them in passes, each
  /// pass every realization once.
  int realizations = 16;
  double alpha = 10.0;
  sjoin::Time horizon = 100;
};

struct Star5Inputs {
  Star5Shape shape;
  /// realizations[i][s] is stream s of realization i.
  std::vector<std::vector<std::vector<sjoin::Value>>> realizations;
  /// Stream models the MULTI-HEEB policy scores with (immutable).
  std::vector<std::unique_ptr<sjoin::StochasticProcess>> models;
  std::vector<const sjoin::StochasticProcess*> model_ptrs;
};

Star5Inputs SampleStar5Inputs(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
