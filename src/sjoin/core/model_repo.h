#ifndef SJOIN_CORE_MODEL_REPO_H_
#define SJOIN_CORE_MODEL_REPO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sjoin/approx/bicubic_surface.h"
#include "sjoin/common/types.h"
#include "sjoin/core/precompute.h"
#include "sjoin/flow/flow_graph.h"
#include "sjoin/stochastic/ar1_process.h"
#include "sjoin/stochastic/random_walk_process.h"

/// \file
/// Content-addressed repository of immutable, shareable model state.
///
/// Every precomputed model artifact — h1 offset tables, h2 caching
/// surfaces and their bicubic compressions, fitted AR(1) processes, and
/// FlowExpect slice-graph skeletons — is a pure function of its
/// parameters. A batch simulator could afford to rebuild them per run; a
/// service multiplexing thousands of sessions cannot, and does not need
/// to: the repo builds each artifact once, keyed by a string that encodes
/// exactly the parameters the artifact depends on, and hands out
/// `shared_ptr<const T>` borrows. Policies migrate from own-your-tables
/// to borrow-from-repo; a policy with a custom (non-introspectable)
/// lifetime function simply builds privately, outside the repo.
///
/// Ingredients shared by several artifacts are built once per repo too.
/// Every walk-join h1 table reads the convolution ladder S_1..S_H of its
/// step pmf, which depends on the step pmf alone, so the repo keeps one
/// ladder per step pmf, grows it to the longest horizon asked for, and
/// builds each (alpha, horizon) table from it. Ladders are not artifacts:
/// `builds` and BuildCount count tables only, while `bytes` counts the
/// ladders too.
///
/// Thread safety: all methods are safe to call concurrently. The repo
/// holds its mutex across a build, so two sessions racing to construct
/// the same model key serialize and the loser gets the winner's table —
/// construction happens exactly once per distinct key for the life of the
/// repo (model_repo_test pins this with the build counters; under
/// SJOIN_VALIDATE a second build of any key aborts). Build callbacks must
/// not call back into the same repo.

namespace sjoin {

/// The immutable part of one FlowExpect slice graph for a fixed
/// (lookahead, candidate count) shape: nodes, arcs (with placeholder
/// costs) and the arc handles cost-rewriting needs. Policies copy the
/// graph into a private working copy — the solver rewrites costs and
/// capacities in place — but the skeleton build, whose node/arc insertion
/// order must exactly mirror the naive oracle's cold build, happens once
/// per shape process-wide.
struct FlowSliceSkeleton {
  struct ArcRef {
    NodeId from = 0;
    std::int32_t index = 0;
  };
  FlowGraph graph;
  std::vector<std::int32_t> source_arcs;  // Per candidate, for FlowOn.
  std::vector<ArcRef> det_arcs;           // Slice-major, candidate-minor.
  std::vector<ArcRef> undet_arcs;  // Slice-major, (arrival, side)-minor.
};

/// Shared cache of immutable model artifacts, keyed by content.
class ModelRepo {
 public:
  struct Stats {
    std::int64_t lookups = 0;  // GetOrBuild-style calls.
    std::int64_t hits = 0;     // Lookups answered from the cache.
    std::int64_t builds = 0;   // Artifacts constructed; == distinct keys.
    // Payload of every resident artifact plus the walk ladders: the
    // element bytes of their vectors (size(), not capacity()).
    std::int64_t bytes = 0;
  };

  ModelRepo() = default;
  ModelRepo(const ModelRepo&) = delete;
  ModelRepo& operator=(const ModelRepo&) = delete;

  /// The process-wide repo that policies default to. Never destroyed
  /// (intentionally leaked: policies may hold borrows at exit).
  static ModelRepo& Global();

  // Generic content-addressed entries: returns the artifact stored under
  // `key`, invoking `build` exactly once per distinct key.
  std::shared_ptr<const OffsetTable> OffsetTableFor(
      const std::string& key, const std::function<OffsetTable()>& build);
  std::shared_ptr<const HeebSurfaceTable> SurfaceFor(
      const std::string& key, const std::function<HeebSurfaceTable()>& build);
  std::shared_ptr<const BicubicSurface> BicubicFor(
      const std::string& key, const std::function<BicubicSurface()>& build);
  std::shared_ptr<const FlowSliceSkeleton> FlowSkeletonFor(
      const std::string& key,
      const std::function<FlowSliceSkeleton()>& build);
  std::shared_ptr<const Ar1Process> Ar1ProcessFor(
      const std::string& key, const std::function<Ar1Process()>& build);

  // Typed wrappers for the canonical L_exp(alpha) artifacts. Keys encode
  // exactly what the tables depend on: the step pmf (not the walk's
  // initial value — both precomputations are offset-based), alpha, the
  // horizon, and for the Monte Carlo surface the grid and sampling
  // parameters.

  /// h1 for the joining problem against a random-walk partner
  /// (PrecomputeWalkJoinHeeb with L_exp(alpha)). Built from the repo's
  /// ladder for the partner's step pmf; `partner` itself is not touched.
  std::shared_ptr<const OffsetTable> WalkJoinHeebTable(
      const RandomWalkProcess& partner, double alpha, Time horizon);

  /// h1 for the caching problem with a random-walk reference
  /// (PrecomputeWalkCachingHeeb with L_exp(alpha)).
  std::shared_ptr<const OffsetTable> WalkCachingHeebTable(
      const RandomWalkProcess& reference, double alpha, Time horizon,
      Value max_abs_offset);

  /// The exact AR(1) caching surface h2 (PrecomputeAr1CachingSurface with
  /// L_exp(alpha)).
  std::shared_ptr<const HeebSurfaceTable> Ar1CachingSurfaceTable(
      const Ar1Process& reference, double alpha, Time horizon, Value v_min,
      Value v_max, Value x_min, Value x_max, Value x_step, int paths,
      std::uint64_t seed);

  /// The nx-by-ny bicubic compression of the surface above. Resolves the
  /// surface dependency through the repo, so the exact table is shared
  /// too.
  std::shared_ptr<const BicubicSurface> Ar1CachingSurfaceBicubic(
      const Ar1Process& reference, double alpha, Time horizon, Value v_min,
      Value v_max, Value x_min, Value x_max, Value x_step, int paths,
      std::uint64_t seed, int nx, int ny);

  /// Times one artifact under `key` has been constructed (0 or, barring
  /// Clear(), 1). The once-per-key acceptance tests read this.
  int BuildCount(const std::string& key) const;

  Stats stats() const;

  /// Drops every cached artifact, every walk ladder and every counter.
  /// Outstanding borrows stay valid (shared_ptr). Test-only.
  void Clear();

 private:
  template <typename T>
  std::shared_ptr<const T> GetOrBuild(
      std::unordered_map<std::string, std::shared_ptr<const T>>* map,
      const std::string& key, const std::function<T()>& build);

  // The convolution powers of one step pmf: `walk`'s memoized StepSum,
  // grown to `depth`. The walk's initial value is irrelevant (both walk
  // precomputations are offset-based).
  struct WalkLadder {
    RandomWalkProcess walk;
    Time depth = 0;
  };

  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<std::string, int> build_counts_;
  std::unordered_map<std::string, std::shared_ptr<const OffsetTable>>
      offset_tables_;
  std::unordered_map<std::string, std::shared_ptr<const HeebSurfaceTable>>
      surfaces_;
  std::unordered_map<std::string, std::shared_ptr<const BicubicSurface>>
      bicubics_;
  std::unordered_map<std::string, std::shared_ptr<const FlowSliceSkeleton>>
      flow_skeletons_;
  std::unordered_map<std::string, std::shared_ptr<const Ar1Process>>
      ar1_processes_;
  // Keyed by AppendWalkStep's step-pmf string. Grown only under mu_,
  // inside a walk-join build.
  std::unordered_map<std::string, WalkLadder> walk_ladders_;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_MODEL_REPO_H_
