// TimedPolicy must be invisible to the run it times: for every policy the
// benchmark's workloads serve, a wrapped and an unwrapped StreamEngine run
// agree on counted_results and on the retained-id trace hash, and the
// decorator's own hash equals the observer's. Also checks that a
// perturbed input changes the fingerprint, so the comparison can fail.
//
// Build and run: perfbench/run.py builds this target; then
//   .bench_build/perfbench/perfbench_decorator_test

#include <cstdio>
#include <vector>

#include "sjoin/engine/stream_engine.h"
#include "sjoin/multi/multi_heeb_policy.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "timed_policy.h"
#include "workloads.h"

namespace {

using perfbench::Fingerprint;
using perfbench::SessionInput;
using perfbench::SessionPolicy;
using perfbench::TimedPolicy;
using perfbench::TraceHashObserver;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Fingerprint RunBinary(const SessionInput& input, std::size_t capacity,
                      sjoin::Time warmup, bool wrap,
                      std::uint64_t* decorator_hash = nullptr,
                      sjoin::StepObserver* extra = nullptr) {
  sjoin::ModelRepo repo;
  SessionPolicy policy(input, &repo, wrap);
  TraceHashObserver observer;
  std::vector<sjoin::StepObserver*> observers = {&observer};
  if (extra != nullptr) observers.push_back(extra);
  sjoin::StreamEngine engine(sjoin::StreamTopology::Binary(),
                             {.capacity = capacity, .warmup = warmup});
  const sjoin::EngineRunResult result =
      engine.Run({&input.r, &input.s}, *policy.engine_policy(), observers);
  if (wrap) {
    Expect(policy.timed()->stats().calls ==
               static_cast<std::int64_t>(input.r.size()),
           "decorator sees one SelectRetained per step");
    if (decorator_hash != nullptr) {
      *decorator_hash = policy.timed()->trace_hash();
    }
  }
  return {result.counted_results, result.total_results, observer.hash()};
}

void CheckServeWorkload(perfbench::Workload workload, sjoin::Time len) {
  perfbench::ServeInputs inputs =
      perfbench::SampleServeInputs(workload, /*seed=*/7, len);
  const perfbench::ServeShape& shape = inputs.shape;
  bool seen[perfbench::kNumSessionKinds] = {};
  for (SessionInput& input : inputs.sessions) {
    const int kind = static_cast<int>(input.kind);
    if (seen[kind]) continue;
    seen[kind] = true;
    std::uint64_t decorator_hash = 0;
    perfbench::JoiningArrivalFinder finder(&input.r, {1});
    const Fingerprint plain =
        RunBinary(input, shape.capacity, shape.warmup, false, nullptr, &finder);
    const Fingerprint wrapped = RunBinary(input, shape.capacity, shape.warmup,
                                          true, &decorator_hash);
    std::fprintf(stderr, "%-10s counted=%lld hash=%016llx\n",
                 perfbench::KindName(input.kind),
                 static_cast<long long>(plain.counted_results),
                 static_cast<unsigned long long>(plain.trace_hash));
    Expect(!plain.vacuous() && plain.total_results > 0,
           "fingerprint is nonzero");
    Expect(plain == wrapped, "wrapped run equals unwrapped run");
    Expect(decorator_hash == wrapped.trace_hash,
           "decorator hash equals observer hash");
    Expect(finder.found() >= 0, "a joining arrival exists");
    if (finder.found() >= 0) {
      SessionInput perturbed;
      perturbed.kind = input.kind;
      perturbed.alpha = input.alpha;
      perturbed.r = input.r;
      perturbed.s = input.s;
      perturbed.r[static_cast<std::size_t>(finder.found())] =
          perfbench::JoiningArrivalFinder::UnseenValue({&input.r, &input.s});
      if (input.reduction != nullptr) {
        // The reduction decodes every served value; an ECB session's
        // perturbation goes into its reference sequence instead.
        std::vector<sjoin::Value> references = input.reduction->references();
        references[static_cast<std::size_t>(finder.found())] += 1000000;
        perturbed.reduction =
            std::make_unique<sjoin::CachingReduction>(references);
        perturbed.r = perturbed.reduction->r_stream();
        perturbed.s = perturbed.reduction->s_stream();
      }
      Expect(!(RunBinary(perturbed, shape.capacity, shape.warmup, false) ==
               plain),
             "a perturbed input changes the fingerprint");
    }
  }
}

void CheckStar5() {
  const perfbench::Star5Inputs inputs = perfbench::SampleStar5Inputs(7);
  const perfbench::Star5Shape& shape = inputs.shape;
  const auto& streams = inputs.realizations[0];
  for (bool planner : {false, true}) {
    sjoin::MultiJoinSimulator simulator(
        shape.num_streams, shape.edges,
        {.capacity = shape.capacity,
         .warmup = shape.warmup,
         .planner = planner});
    sjoin::MultiHeebPolicy policy(
        inputs.model_ptrs, &simulator,
        {.alpha = shape.alpha, .horizon = shape.horizon,
         .use_score_cache = planner});
    TimedPolicy timed(&policy);
    Expect(timed.WantsCandidateBatch() == policy.WantsCandidateBatch(),
           "WantsCandidateBatch passes through");

    // Engine level, with the observer on both runs.
    sjoin::StreamEngine engine(
        simulator.topology(),
        {.capacity = shape.capacity, .warmup = shape.warmup});
    std::vector<const std::vector<sjoin::Value>*> rows;
    for (const auto& stream : streams) rows.push_back(&stream);
    TraceHashObserver plain_observer;
    const auto plain = engine.Run(rows, policy, {&plain_observer});
    TraceHashObserver wrapped_observer;
    const auto wrapped = engine.Run(rows, timed, {&wrapped_observer});
    Expect(plain.counted_results > 0, "MULTI-HEEB fingerprint is nonzero");
    Expect(plain.counted_results == wrapped.counted_results &&
               plain_observer.hash() == wrapped_observer.hash(),
           "MULTI-HEEB wrapped run equals unwrapped run");
    Expect(timed.trace_hash() == wrapped_observer.hash(),
           "MULTI-HEEB decorator hash equals observer hash");

    // Façade level, as batch-star5 runs it.
    const auto facade_plain = simulator.Run(streams, policy);
    const auto facade_wrapped = simulator.Run(streams, timed);
    Expect(facade_plain.counted_results == facade_wrapped.counted_results &&
               facade_wrapped.counted_results == plain.counted_results,
           "façade runs agree with the engine runs");
    Expect(timed.trace_hash() == wrapped_observer.hash(),
           "façade decorator hash equals the engine trace");
    std::fprintf(stderr, "multi-heeb planner=%d counted=%lld hash=%016llx\n",
                 planner ? 1 : 0,
                 static_cast<long long>(plain.counted_results),
                 static_cast<unsigned long long>(plain_observer.hash()));
  }
}

}  // namespace

int main() {
  CheckServeWorkload(perfbench::Workload::kServeSmall, 256);
  CheckServeWorkload(perfbench::Workload::kServeModel, 600);
  CheckStar5();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "all decorator checks passed\n");
  return 0;
}
