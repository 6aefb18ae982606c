#include "sjoin/engine/step_observer.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/engine/stream_engine.h"

namespace sjoin {

void PerfObserver::OnRunBegin(const EngineRunView& run) {
  (void)run;
  telemetry_ = EngineTelemetry();
  stopwatch_.Restart();
}

void PerfObserver::OnStep(const EngineStepView& step) {
  ++telemetry_.steps;
  telemetry_.peak_candidates =
      std::max(telemetry_.peak_candidates,
               static_cast<std::int64_t>(step.num_candidates));
  telemetry_.probes += step.probes;
  telemetry_.probe_skips += step.probe_skips;
  telemetry_.probe_cache_hits += step.probe_cache_hits;
  telemetry_.plan_replans += step.plan_replans;
}

void PerfObserver::OnRunEnd(const EngineRunView& run) {
  (void)run;
  telemetry_.run_ns = stopwatch_.ElapsedNs();
}

void CacheCompositionObserver::OnStep(const EngineStepView& step) {
  std::size_t count = 0;
  for (const StreamTuple& tuple : *step.cache) {
    if (tuple.stream == stream_) ++count;
  }
  out_->push_back(step.cache->empty()
                      ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(step.cache->size()));
}

void ValidationObserver::OnRunBegin(const EngineRunView& run) {
  capacity_ = run.capacity;
  num_streams_ = run.topology->num_streams();
  ids_.Reserve(capacity_);
}

void ValidationObserver::OnStep(const EngineStepView& step) {
  SJOIN_CHECK_LE(step.cache->size(), capacity_);
  SJOIN_CHECK_LE(step.retained->size(), capacity_);
  ids_.Reset();
  for (const StreamTuple& tuple : *step.cache) {
    SJOIN_CHECK_MSG(ids_.Insert(tuple.id, 0),
                    "cache holds the same tuple twice");
    SJOIN_CHECK_MSG(tuple.stream >= 0 && tuple.stream < num_streams_,
                    "cached tuple has an out-of-range stream");
  }
}

void ScoreTraceObserver::OnRunBegin(const EngineRunView& run) {
  (void)run;
  samples_.clear();
  current_step_ = 0;
  policy_->set_score_observer([this](const Tuple& tuple, double score) {
    samples_.push_back({current_step_, tuple.id, score});
  });
}

void ScoreTraceObserver::OnStep(const EngineStepView& step) {
  // Scores for the decision at `step.now` have already fired; label the
  // next batch with the following step.
  current_step_ = step.now + 1;
}

void ScoreTraceObserver::OnRunEnd(const EngineRunView& run) {
  (void)run;
  policy_->set_score_observer(nullptr);
}

}  // namespace sjoin
