#include "sjoin/engine/stream_engine.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/probe_planner.h"

namespace sjoin {

StreamTopology::StreamTopology(int num_streams,
                               std::vector<std::pair<int, int>> join_edges)
    : num_streams_(num_streams),
      join_edges_(std::move(join_edges)),
      partners_(static_cast<std::size_t>(num_streams)),
      joins_(static_cast<std::size_t>(num_streams),
             std::vector<char>(static_cast<std::size_t>(num_streams), 0)) {
  SJOIN_CHECK_GE(num_streams_, 2);
  SJOIN_CHECK(!join_edges_.empty());
  for (const auto& [a, b] : join_edges_) {
    SJOIN_CHECK_GE(a, 0);
    SJOIN_CHECK_LT(a, num_streams_);
    SJOIN_CHECK_GE(b, 0);
    SJOIN_CHECK_LT(b, num_streams_);
    SJOIN_CHECK_NE(a, b);
    SJOIN_CHECK_MSG(joins_[static_cast<std::size_t>(a)]
                          [static_cast<std::size_t>(b)] == 0,
                    "duplicate or mirrored join edge would double-count "
                    "every match on it");
    partners_[static_cast<std::size_t>(a)].push_back(b);
    partners_[static_cast<std::size_t>(b)].push_back(a);
    joins_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 1;
    joins_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = 1;
  }
}

StreamTopology StreamTopology::Binary() {
  return StreamTopology(2, {{0, 1}});
}

const std::vector<int>& StreamTopology::PartnersOf(int stream) const {
  SJOIN_CHECK_GE(stream, 0);
  SJOIN_CHECK_LT(stream, num_streams_);
  return partners_[static_cast<std::size_t>(stream)];
}

StreamEngine::StreamEngine(StreamTopology topology, Options options)
    : topology_(std::move(topology)), options_(options) {
  SJOIN_CHECK_GE(options_.capacity, 1u);
  SJOIN_CHECK_GE(options_.warmup, 0);
  if (options_.window.has_value()) SJOIN_CHECK_GE(*options_.window, 0);
  const auto n = static_cast<std::size_t>(topology_.num_streams());
  new_cache_.reserve(options_.capacity);
  arrivals_.reserve(n);
}

EngineRunResult StreamEngine::Run(
    const std::vector<const std::vector<Value>*>& streams,
    EnginePolicy& policy, const std::vector<StepObserver*>& observers) {
  const int n = topology_.num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(streams.size()), n);
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time len = static_cast<Time>(streams[0]->size());
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), len);
  }
  if (run_session_ == nullptr) {
    run_session_ = std::make_unique<SessionState>();
  }
  OpenWithLength(*run_session_, options_, policy, observers, len);
  Advance(*run_session_, streams);
  return Close(*run_session_);
}

void StreamEngine::Open(SessionState& session, const Options& options,
                        EnginePolicy& policy,
                        std::vector<StepObserver*> observers) {
  OpenWithLength(session, options, policy, std::move(observers),
                 /*known_length=*/-1);
}

void StreamEngine::OpenWithLength(SessionState& session,
                                  const Options& options,
                                  EnginePolicy& policy,
                                  std::vector<StepObserver*> observers,
                                  Time known_length) {
  SJOIN_CHECK_MSG(!session.open, "Open on a session that is already open");
  SJOIN_CHECK_GE(options.capacity, 1u);
  SJOIN_CHECK_GE(options.warmup, 0);
  if (options.window.has_value()) SJOIN_CHECK_GE(*options.window, 0);
  const auto n = static_cast<std::size_t>(topology_.num_streams());

  session.open = true;
  session.now = 0;
  session.result = EngineRunResult();
  session.policy = &policy;
  session.observers = std::move(observers);
  session.options = options;

  policy.Reset();

  session.cache.clear();
  session.cache.reserve(options.capacity);
  session.histories.assign(n, StreamHistory());

  // Large caches probe arrivals against per-stream value -> count
  // indexes of the cached tuples, maintained with the <= N insertions and
  // evictions a step can make, instead of scanning the whole cache.
  // Windowed runs expire tuples by age, which the value counts cannot
  // see, so they keep the linear probe; so do tiny caches, where the scan
  // is cheaper.
  session.use_value_index = !options.window.has_value() &&
                            options.capacity >= kValueIndexMinCapacity;
  if (session.use_value_index) {
    session.value_index.assign(n, {});
  } else {
    session.value_index.clear();
  }

  // Probe planning (engine/probe_planner.h): probe order, short-circuits
  // and the (partner, value) probe-result memo are cost-only, so the
  // planned Phase 1 below produces the same integer sum as the naive loop
  // in any mode. The memo survives across steps only when no window can
  // expire tuples behind its back.
  ProbePlanner* planner = options.probe_planner;
  if (planner != nullptr) {
    planner->BeginRun(topology_,
                      /*memo_across_steps=*/!options.window.has_value());
    session.stream_counts.assign(n, 0);
  }

  EngineRunView run_view;
  run_view.topology = &topology_;
  run_view.capacity = options.capacity;
  run_view.warmup = options.warmup;
  run_view.window = options.window;
  run_view.length = known_length;
  for (StepObserver* observer : session.observers) {
    observer->OnRunBegin(run_view);
  }
}

void StreamEngine::Advance(
    SessionState& session,
    const std::vector<const std::vector<Value>*>& batch) {
  SJOIN_CHECK_MSG(session.open, "Advance on a session that is not open");
  const int n = topology_.num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(batch.size()), n);
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time steps = static_cast<Time>(batch[0]->size());
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), steps);
  }

  const Options& opts = session.options;
  const bool use_value_index = session.use_value_index;
  ProbePlanner* planner = opts.probe_planner;
  EnginePolicy& policy = *session.policy;
  // Sessions bind their own capacity; this only grows the table when a
  // session's candidate count exceeds every earlier one.
  lanes_.Reserve(opts.capacity + static_cast<std::size_t>(n));
  retained_lanes_.reserve(opts.capacity);

  for (Time i = 0; i < steps; ++i) {
    const Time t = session.now;
    arrivals_.clear();
    for (int s = 0; s < n; ++s) {
      arrivals_.push_back(
          {StreamTupleIdAt(n, s, t), s,
           (*batch[static_cast<std::size_t>(s)])
               [static_cast<std::size_t>(i)],
           t});
    }

    // Phase 1: arrivals join cached tuples of partner streams. Joins
    // among same-step arrivals happen regardless of caching and are
    // excluded, as in the paper.
    std::int64_t produced = 0;
    if (planner != nullptr) {
      planner->BeginStep(t);
      for (const StreamTuple& arrival : arrivals_) {
        for (int partner : planner->PlanFor(arrival.stream)) {
          if (session.stream_counts[static_cast<std::size_t>(partner)] ==
              0) {
            planner->ObserveProbe(arrival.stream, partner, 0,
                                  ProbeKind::kSkipped);
            continue;
          }
          std::int64_t matches = 0;
          if (planner->LookupCount(partner, arrival.value, &matches)) {
            planner->ObserveProbe(arrival.stream, partner, matches,
                                  ProbeKind::kMemoHit);
          } else {
            if (use_value_index) {
              const auto& index =
                  session.value_index[static_cast<std::size_t>(partner)];
              auto it = index.find(arrival.value);
              if (it != index.end()) matches = it->second;
            } else {
              for (const StreamTuple& cached : session.cache) {
                if (cached.stream == partner &&
                    cached.value == arrival.value &&
                    InWindow(cached, t, opts.window)) {
                  ++matches;
                }
              }
            }
            planner->StoreCount(partner, arrival.value, matches);
            planner->ObserveProbe(arrival.stream, partner, matches,
                                  ProbeKind::kEvaluated);
          }
          produced += matches;
        }
      }
    } else if (use_value_index) {
      for (const StreamTuple& arrival : arrivals_) {
        for (int partner : topology_.PartnersOf(arrival.stream)) {
          const auto& index =
              session.value_index[static_cast<std::size_t>(partner)];
          auto it = index.find(arrival.value);
          if (it != index.end()) produced += it->second;
        }
      }
    } else {
      for (const StreamTuple& cached : session.cache) {
        if (!InWindow(cached, t, opts.window)) continue;
        for (const StreamTuple& arrival : arrivals_) {
          if (!topology_.Joins(cached.stream, arrival.stream)) continue;
          if (cached.value == arrival.value) ++produced;
        }
      }
    }
    session.result.total_results += produced;
    const bool counted = t >= opts.warmup;
    if (counted) session.result.counted_results += produced;

    // Phase 2: the policy picks the new cache content.
    for (int s = 0; s < n; ++s) {
      session.histories[static_cast<std::size_t>(s)].Append(
          arrivals_[static_cast<std::size_t>(s)].value);
    }
    EngineContext ctx;
    ctx.now = t;
    ctx.capacity = opts.capacity;
    ctx.cached = &session.cache;
    ctx.arrivals = &arrivals_;
    ctx.histories = &session.histories;
    ctx.window = opts.window;
    // The commit below caches the retained ids in returned order, so on
    // every step after the session's first the cache is exactly the list
    // the policy returned last.
    EngineStep step;
    step.carried = t > 0;
    retained_lanes_.clear();
    step.retained_lanes = &retained_lanes_;
    ctx.step = &step;
    std::vector<TupleId> retained = policy.SelectRetained(ctx);
    SJOIN_CHECK_LE(retained.size(), opts.capacity);

    // Commit: mark the retained lanes (cache, then arrivals) and copy them
    // out in retained order. The lanes are the policy's report, checked
    // against the ids; a policy that reported none has its ids mapped.
    lanes_.Bind(session.cache, arrivals_);
    const std::size_t num_candidates = lanes_.size();
    if (retained_lanes_.empty() && !retained.empty()) {
      lanes_.IndexIds();
      for (TupleId id : retained) retained_lanes_.push_back(lanes_.Find(id));
    }
    SJOIN_CHECK_MSG(retained_lanes_.size() == retained.size(),
                    "policy reported a different number of retained lanes "
                    "than retained ids");
    new_cache_.clear();
    for (std::size_t i = 0; i < retained.size(); ++i) {
      const CandidateLanes::Lane lane = retained_lanes_[i];
      SJOIN_CHECK_MSG(lane < num_candidates &&
                          lanes_.tuple(lane).id == retained[i],
                      "policy retained a tuple that is not a candidate");
      SJOIN_CHECK_MSG(lanes_.Take(lane),
                      "policy retained the same tuple twice");
      new_cache_.push_back(lanes_.tuple(lane));
    }

    if (use_value_index || planner != nullptr) {
      // Untaken cache lanes are evictions, taken arrival lanes insertions.
      const std::size_t num_cached = session.cache.size();
      for (std::size_t lane = 0; lane < num_cached; ++lane) {
        if (lanes_.taken(static_cast<CandidateLanes::Lane>(lane))) continue;
        const StreamTuple& tuple = session.cache[lane];
        if (use_value_index) {
          auto& index =
              session.value_index[static_cast<std::size_t>(tuple.stream)];
          auto it = index.find(tuple.value);
          if (--it->second == 0) index.erase(it);
        }
        if (planner != nullptr) {
          --session.stream_counts[static_cast<std::size_t>(tuple.stream)];
          planner->OnCacheChange(tuple.stream, tuple.value);
        }
      }
      for (std::size_t lane = num_cached; lane < num_candidates; ++lane) {
        if (!lanes_.taken(static_cast<CandidateLanes::Lane>(lane))) continue;
        const StreamTuple& tuple = arrivals_[lane - num_cached];
        if (use_value_index) {
          ++session.value_index[static_cast<std::size_t>(tuple.stream)]
                               [tuple.value];
        }
        if (planner != nullptr) {
          ++session.stream_counts[static_cast<std::size_t>(tuple.stream)];
          planner->OnCacheChange(tuple.stream, tuple.value);
        }
      }
    }
    session.cache.swap(new_cache_);

    if constexpr (kValidationEnabled) {
      SJOIN_VALIDATE(session.cache.size() <= opts.capacity);
      for (const StreamTuple& tuple : session.cache) {
        SJOIN_VALIDATE_MSG(tuple.stream >= 0 && tuple.stream < n,
                           "cached tuple has an out-of-range stream");
      }
      if (use_value_index) {
        // The incrementally-maintained value -> count indexes must match
        // a from-scratch recount of the cache.
        decltype(session.value_index) recount(static_cast<std::size_t>(n));
        for (const StreamTuple& tuple : session.cache) {
          ++recount[static_cast<std::size_t>(tuple.stream)][tuple.value];
        }
        SJOIN_VALIDATE_MSG(recount == session.value_index,
                           "value index out of sync with cache contents");
      }
      if (planner != nullptr) {
        std::vector<std::int64_t> recount(static_cast<std::size_t>(n), 0);
        for (const StreamTuple& tuple : session.cache) {
          ++recount[static_cast<std::size_t>(tuple.stream)];
        }
        SJOIN_VALIDATE_MSG(recount == session.stream_counts,
                           "per-stream counts out of sync with cache");
        // Wherever the probe memo still holds an entry after the commit's
        // invalidations, it must equal a fresh count of the cache
        // (cross-step entries survive only in unwindowed runs, where age
        // cannot expire tuples behind the memo's back).
        if (!opts.window.has_value()) {
          for (const StreamTuple& tuple : session.cache) {
            std::int64_t memoized = 0;
            if (!planner->LookupCount(tuple.stream, tuple.value,
                                      &memoized)) {
              continue;
            }
            std::int64_t fresh = 0;
            for (const StreamTuple& other : session.cache) {
              if (other.stream == tuple.stream &&
                  other.value == tuple.value) {
                ++fresh;
              }
            }
            SJOIN_VALIDATE_MSG(memoized == fresh,
                               "probe memo out of sync with cache");
          }
        }
      }
    }

    EngineStepView step_view;
    step_view.now = t;
    step_view.produced = produced;
    step_view.counted = counted;
    step_view.num_candidates = num_candidates;
    if (planner != nullptr) {
      const ProbePlanStats& plan = planner->step_stats();
      step_view.probes = plan.probes;
      step_view.probe_skips = plan.skipped;
      step_view.probe_cache_hits = plan.cache_hits;
      step_view.plan_replans = plan.replans;
    }
    step_view.cache = &session.cache;
    step_view.arrivals = &arrivals_;
    step_view.retained = &retained;
    for (StepObserver* observer : session.observers) {
      observer->OnStep(step_view);
    }
    session.now = t + 1;
  }
}

const EngineRunResult& StreamEngine::Drain(
    const SessionState& session) const {
  SJOIN_CHECK_MSG(session.open, "Drain on a session that is not open");
  return session.result;
}

EngineRunResult StreamEngine::Close(SessionState& session) {
  SJOIN_CHECK_MSG(session.open, "Close on a session that is not open");
  EngineRunView run_view;
  run_view.topology = &topology_;
  run_view.capacity = session.options.capacity;
  run_view.warmup = session.options.warmup;
  run_view.window = session.options.window;
  run_view.length = session.now;
  for (StepObserver* observer : session.observers) {
    observer->OnRunEnd(run_view);
  }
  session.open = false;
  session.policy = nullptr;
  session.observers.clear();
  return session.result;
}

void BinaryPolicyAdapter::Reset() { policy_->Reset(); }

std::vector<TupleId> BinaryPolicyAdapter::SelectRetained(
    const EngineContext& ctx) {
  cached_.clear();
  arrivals_.clear();
  for (const StreamTuple& tuple : *ctx.cached) {
    cached_.push_back({tuple.id, static_cast<StreamSide>(tuple.stream),
                       tuple.value, tuple.arrival});
  }
  for (const StreamTuple& tuple : *ctx.arrivals) {
    arrivals_.push_back({tuple.id, static_cast<StreamSide>(tuple.stream),
                         tuple.value, tuple.arrival});
  }
  binary_ctx_.now = ctx.now;
  binary_ctx_.capacity = ctx.capacity;
  binary_ctx_.cached = &cached_;
  binary_ctx_.arrivals = &arrivals_;
  binary_ctx_.history_r = &(*ctx.histories)[0];
  binary_ctx_.history_s = &(*ctx.histories)[1];
  binary_ctx_.window = ctx.window;
  // The step's hand-offs pass through unchanged: stream index ==
  // SideIndex for binary topologies, the mirrors above preserve candidate
  // order, and the wrapped policy's returned list is the adapter's.
  binary_ctx_.step = ctx.step;
  return policy_->SelectRetained(binary_ctx_);
}

}  // namespace sjoin
