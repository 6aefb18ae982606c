// Multi-way stream fusion (the Appendix C generalization): N sensor
// feeds whose readings drift together; a correlation query joins them
// along a chain (0-1-2-...) or a star (hub 0) from one shared cache.
// HEEB sums the expected benefit over each tuple's partner streams.
//
// Flags:
//   --streams=N      number of feeds (default 3, minimum 2)
//   --edges=chain    chain topology 0-1, 1-2, ... (default)
//   --edges=star     star topology with feed 0 as the hub
//   --planner=1      attach the runtime probe planner (DESIGN.md §2f):
//                    probe order re-planned from observed selectivities,
//                    empty partners skipped, repeated (partner, value)
//                    probes served from a probe-result cache, plus the
//                    policy's score memo. Results are bit-identical by
//                    construction — only the speed changes — so CI diffs
//                    the planner-on stdout against the planner-off one.
//                    Plan statistics go to stderr to keep stdout clean.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sjoin/multi/multi_heeb_policy.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"

using namespace sjoin;

int main(int argc, char** argv) {
  int num_streams = 3;
  bool star = false;
  bool planner = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--streams=", 10) == 0) {
      num_streams = std::atoi(argv[i] + 10);
      if (num_streams < 2) num_streams = 2;
    } else if (std::strcmp(argv[i], "--edges=star") == 0) {
      star = true;
    } else if (std::strcmp(argv[i], "--edges=chain") == 0) {
      star = false;
    } else if (std::strncmp(argv[i], "--planner=", 10) == 0) {
      planner = std::atoi(argv[i] + 10) != 0;
    }
  }

  auto noise = [](double sd, Value bound) {
    return DiscreteDistribution::TruncatedDiscretizedNormal(0.0, sd, -bound,
                                                            bound);
  };
  // Feeds drift one unit per tick with staggered offsets, so every joined
  // pair overlaps for the whole run.
  std::vector<std::unique_ptr<LinearTrendProcess>> feeds;
  std::vector<const StochasticProcess*> feed_ptrs;
  Rng rng(31);
  std::vector<std::vector<Value>> streams;
  for (int s = 0; s < num_streams; ++s) {
    feeds.push_back(std::make_unique<LinearTrendProcess>(
        1.0, -0.5 * s, noise(2.0, 10)));
    feed_ptrs.push_back(feeds.back().get());
    streams.push_back(SampleRealization(*feeds.back(), 3000, rng));
  }

  std::vector<std::pair<int, int>> edges;
  for (int s = 1; s < num_streams; ++s) {
    edges.push_back(star ? std::make_pair(0, s) : std::make_pair(s - 1, s));
  }

  MultiJoinSimulator sim(num_streams, edges,
                         {.capacity = 12, .warmup = 100, .planner = planner});

  MultiHeebPolicy heeb(feed_ptrs, &sim,
                       {.alpha = 10.0, .horizon = 120,
                        .use_score_cache = planner});
  MultiRandomPolicy rand(9);

  auto heeb_result = sim.Run(streams, heeb);
  auto rand_result = sim.Run(streams, rand);
  std::printf("%s join over %d feeds, 3000 ticks, shared 12-slot cache:\n",
              star ? "star" : "chain", num_streams);
  std::printf("  MULTI-HEEB: %lld results\n",
              static_cast<long long>(heeb_result.counted_results));
  std::printf("  MULTI-RAND: %lld results\n",
              static_cast<long long>(rand_result.counted_results));
  if (star) {
    std::printf("  (feed 0 joins every spoke, so its tuples carry %d times "
                "the expected benefit\n   and HEEB keeps proportionally "
                "more of them.)\n",
                num_streams - 1);
  } else {
    std::printf("  (interior feeds join both neighbors, so their tuples "
                "carry twice the expected\n   benefit and HEEB keeps "
                "proportionally more of them.)\n");
  }
  if (planner) {
    const auto& t = heeb_result.telemetry;
    std::fprintf(stderr,
                 "planner: %lld probes, %.1f%% skipped, %.1f%% served from "
                 "the probe cache, %lld replans\n",
                 static_cast<long long>(t.probes),
                 t.probes > 0 ? 100.0 * static_cast<double>(t.probe_skips) /
                                    static_cast<double>(t.probes)
                              : 0.0,
                 t.probes > 0
                     ? 100.0 * static_cast<double>(t.probe_cache_hits) /
                           static_cast<double>(t.probes)
                     : 0.0,
                 static_cast<long long>(t.plan_replans));
  }
  return 0;
}
