#include "sjoin/core/model_repo.h"

#include <cstdio>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/core/lifetime_fn.h"

namespace sjoin {
namespace {

// %.17g round-trips every double, so keys built from the same parameters
// are byte-identical and keys built from different parameters differ.
void AppendDouble(std::string* key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *key += buf;
}

void AppendInt(std::string* key, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *key += buf;
}

// The full step pmf of a walk: support start plus every mass. Both walk
// precomputations depend on the step distribution alone (they tabulate
// over offsets), so the initial value is deliberately absent.
void AppendWalkStep(std::string* key, const RandomWalkProcess& walk) {
  const DiscreteDistribution& step = walk.step();
  *key += "|step=";
  AppendInt(key, step.MinValue());
  for (double mass : step.masses()) {
    *key += ',';
    AppendDouble(key, mass);
  }
}

void AppendAr1(std::string* key, const Ar1Process& reference) {
  *key += "|phi0=";
  AppendDouble(key, reference.phi0());
  *key += "|phi1=";
  AppendDouble(key, reference.phi1());
  *key += "|sigma=";
  AppendDouble(key, reference.sigma());
}

std::string Ar1SurfaceKey(const Ar1Process& reference, double alpha,
                          Time horizon, Value v_min, Value v_max,
                          Value x_min, Value x_max, Value x_step, int paths,
                          std::uint64_t seed) {
  std::string key = "ar1-surface";
  AppendAr1(&key, reference);
  key += "|alpha=";
  AppendDouble(&key, alpha);
  key += "|h=";
  AppendInt(&key, horizon);
  key += "|v=";
  AppendInt(&key, v_min);
  key += ":";
  AppendInt(&key, v_max);
  key += "|x=";
  AppendInt(&key, x_min);
  key += ":";
  AppendInt(&key, x_max);
  key += ":";
  AppendInt(&key, x_step);
  key += "|paths=";
  AppendInt(&key, paths);
  key += "|seed=";
  AppendInt(&key, static_cast<std::int64_t>(seed));
  return key;
}

// Payload bytes per artifact type: the element bytes of its vectors.
template <typename T>
std::int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<std::int64_t>(v.size() * sizeof(T));
}

std::int64_t PayloadBytes(const OffsetTable& table) {
  return VectorBytes(table.values());
}

std::int64_t PayloadBytes(const HeebSurfaceTable& surface) {
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < surface.num_columns(); ++i) {
    bytes += VectorBytes(surface.column(i));
  }
  return bytes;
}

std::int64_t PayloadBytes(const BicubicSurface& bicubic) {
  return static_cast<std::int64_t>(bicubic.nx()) * bicubic.ny() *
         static_cast<std::int64_t>(sizeof(double));
}

std::int64_t PayloadBytes(const FlowSliceSkeleton& skeleton) {
  std::int64_t bytes = VectorBytes(skeleton.source_arcs) +
                       VectorBytes(skeleton.det_arcs) +
                       VectorBytes(skeleton.undet_arcs);
  for (NodeId node = 0; node < skeleton.graph.NumNodes(); ++node) {
    bytes += VectorBytes(skeleton.graph.AdjacencyOf(node));
  }
  return bytes;
}

// A fitted AR(1) process is four scalars and owns no vector.
std::int64_t PayloadBytes(const Ar1Process&) { return 0; }

}  // namespace

ModelRepo& ModelRepo::Global() {
  static ModelRepo* repo = new ModelRepo();
  return *repo;
}

template <typename T>
std::shared_ptr<const T> ModelRepo::GetOrBuild(
    std::unordered_map<std::string, std::shared_ptr<const T>>* map,
    const std::string& key, const std::function<T()>& build) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = map->find(key);
  if (it != map->end()) {
    ++stats_.hits;
    return it->second;
  }
  // Build under the lock: a concurrent session asking for the same key
  // blocks and then hits, which is what makes construction once-per-key.
  auto built = std::make_shared<const T>(build());
  ++stats_.builds;
  stats_.bytes += PayloadBytes(*built);
  int& count = build_counts_[key];
  ++count;
  if constexpr (kValidationEnabled) {
    SJOIN_CHECK_MSG(count == 1,
                    "ModelRepo built the same model key twice — the cache "
                    "is supposed to make construction once-per-key");
  }
  map->emplace(key, built);
  return built;
}

std::shared_ptr<const OffsetTable> ModelRepo::OffsetTableFor(
    const std::string& key, const std::function<OffsetTable()>& build) {
  return GetOrBuild(&offset_tables_, key, build);
}

std::shared_ptr<const HeebSurfaceTable> ModelRepo::SurfaceFor(
    const std::string& key, const std::function<HeebSurfaceTable()>& build) {
  return GetOrBuild(&surfaces_, key, build);
}

std::shared_ptr<const BicubicSurface> ModelRepo::BicubicFor(
    const std::string& key, const std::function<BicubicSurface()>& build) {
  return GetOrBuild(&bicubics_, key, build);
}

std::shared_ptr<const FlowSliceSkeleton> ModelRepo::FlowSkeletonFor(
    const std::string& key, const std::function<FlowSliceSkeleton()>& build) {
  return GetOrBuild(&flow_skeletons_, key, build);
}

std::shared_ptr<const Ar1Process> ModelRepo::Ar1ProcessFor(
    const std::string& key, const std::function<Ar1Process()>& build) {
  return GetOrBuild(&ar1_processes_, key, build);
}

std::shared_ptr<const OffsetTable> ModelRepo::WalkJoinHeebTable(
    const RandomWalkProcess& partner, double alpha, Time horizon) {
  std::string step_key;
  AppendWalkStep(&step_key, partner);
  std::string key = "walk-join-h1" + step_key;
  key += "|alpha=";
  AppendDouble(&key, alpha);
  key += "|h=";
  AppendInt(&key, horizon);
  // The build runs under mu_ (GetOrBuild), which guards walk_ladders_.
  return OffsetTableFor(key, [&] {
    WalkLadder& ladder =
        walk_ladders_
            .try_emplace(step_key,
                         WalkLadder{RandomWalkProcess(partner.step(), 0)})
            .first->second;
    // Grow the ladder here rather than inside the precompute, so the
    // bytes of each new power are counted once.
    for (; ladder.depth < horizon; ++ladder.depth) {
      stats_.bytes +=
          VectorBytes(ladder.walk.StepSum(ladder.depth + 1).masses());
    }
    return PrecomputeWalkJoinHeeb(ladder.walk, ExpLifetime(alpha), horizon);
  });
}

std::shared_ptr<const OffsetTable> ModelRepo::WalkCachingHeebTable(
    const RandomWalkProcess& reference, double alpha, Time horizon,
    Value max_abs_offset) {
  std::string key = "walk-caching-h1";
  AppendWalkStep(&key, reference);
  key += "|alpha=";
  AppendDouble(&key, alpha);
  key += "|h=";
  AppendInt(&key, horizon);
  key += "|maxoff=";
  AppendInt(&key, max_abs_offset);
  return OffsetTableFor(key, [&] {
    return PrecomputeWalkCachingHeeb(reference, ExpLifetime(alpha), horizon,
                                     max_abs_offset);
  });
}

std::shared_ptr<const HeebSurfaceTable> ModelRepo::Ar1CachingSurfaceTable(
    const Ar1Process& reference, double alpha, Time horizon, Value v_min,
    Value v_max, Value x_min, Value x_max, Value x_step, int paths,
    std::uint64_t seed) {
  std::string key = Ar1SurfaceKey(reference, alpha, horizon, v_min, v_max,
                                  x_min, x_max, x_step, paths, seed);
  return SurfaceFor(key, [&] {
    return PrecomputeAr1CachingSurface(reference, ExpLifetime(alpha), horizon,
                                       v_min, v_max, x_min, x_max, x_step,
                                       paths, seed);
  });
}

std::shared_ptr<const BicubicSurface> ModelRepo::Ar1CachingSurfaceBicubic(
    const Ar1Process& reference, double alpha, Time horizon, Value v_min,
    Value v_max, Value x_min, Value x_max, Value x_step, int paths,
    std::uint64_t seed, int nx, int ny) {
  // Resolve the surface dependency first (outside this call's GetOrBuild,
  // which holds the repo lock): if the bicubic is cached this is a cheap
  // hit, and if not the surface gets built and shared either way.
  std::shared_ptr<const HeebSurfaceTable> surface = Ar1CachingSurfaceTable(
      reference, alpha, horizon, v_min, v_max, x_min, x_max, x_step, paths,
      seed);
  std::string key = Ar1SurfaceKey(reference, alpha, horizon, v_min, v_max,
                                  x_min, x_max, x_step, paths, seed);
  key += "|bicubic=";
  AppendInt(&key, nx);
  key += "x";
  AppendInt(&key, ny);
  return BicubicFor(
      key, [&] { return ApproximateSurfaceBicubic(*surface, nx, ny); });
}

int ModelRepo::BuildCount(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = build_counts_.find(key);
  return it == build_counts_.end() ? 0 : it->second;
}

ModelRepo::Stats ModelRepo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ModelRepo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats();
  build_counts_.clear();
  offset_tables_.clear();
  surfaces_.clear();
  bicubics_.clear();
  flow_skeletons_.clear();
  ar1_processes_.clear();
  walk_ladders_.clear();
}

}  // namespace sjoin
