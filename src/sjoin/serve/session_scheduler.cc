#include "sjoin/serve/session_scheduler.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/common/stopwatch.h"

namespace sjoin {
namespace serve {

SessionScheduler::SessionScheduler(StreamTopology topology, Options options)
    : topology_(std::move(topology)),
      options_(options),
      pool_(std::max(options.threads, 1)) {
  SJOIN_CHECK_GE(options_.max_sessions, 1u);
  SJOIN_CHECK_GE(options_.queue_capacity, 1u);
  SJOIN_CHECK_GE(options_.quota_unit, 1);
  if (options_.high_watermark == 0 ||
      options_.high_watermark > options_.queue_capacity) {
    options_.high_watermark = options_.queue_capacity;
  }
  const int threads = std::max(options_.threads, 1);
  engines_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    // Worker engines are interchangeable executors; per-session options
    // are bound at Open, so the engine's own Options are irrelevant.
    engines_.push_back(
        std::make_unique<StreamEngine>(topology_, StreamEngine::Options{}));
  }
  worker_items_.resize(static_cast<std::size_t>(threads));
  worker_latencies_.resize(static_cast<std::size_t>(threads));
}

SessionScheduler::~SessionScheduler() = default;

SessionScheduler::Session& SessionScheduler::Live(SessionId id) {
  SJOIN_CHECK_GE(id, 0);
  SJOIN_CHECK_LT(static_cast<std::size_t>(id), sessions_.size());
  return sessions_[static_cast<std::size_t>(id)];
}

const SessionScheduler::Session& SessionScheduler::Live(SessionId id) const {
  SJOIN_CHECK_GE(id, 0);
  SJOIN_CHECK_LT(static_cast<std::size_t>(id), sessions_.size());
  return sessions_[static_cast<std::size_t>(id)];
}

Admission SessionScheduler::Open(const SessionConfig& config) {
  Admission admission;
  if (live_sessions_ >= options_.max_sessions) {
    admission.reject_reason = "session table is full (max_sessions)";
  } else if (config.policy == nullptr) {
    admission.reject_reason = "config.policy is null";
  } else if (config.weight < 1) {
    admission.reject_reason = "config.weight must be >= 1";
  } else if (config.engine.capacity < 1) {
    admission.reject_reason = "config.engine.capacity must be >= 1";
  }
  if (!admission.ok()) {
    ++stats_.sessions_rejected;
    return admission;
  }

  sessions_.emplace_back();
  Session& session = sessions_.back();
  session.config = config;
  session.queued.resize(static_cast<std::size_t>(topology_.num_streams()));
  session.batch.resize(session.queued.size());
  session.batch_ptrs.reserve(session.batch.size());
  for (const std::vector<Value>& row : session.batch) {
    session.batch_ptrs.push_back(&row);
  }
  engines_[0]->Open(session.state, config.engine, *config.policy,
                    config.observers);
  ++live_sessions_;
  ++stats_.sessions_admitted;
  admission.id = static_cast<SessionId>(sessions_.size() - 1);
  return admission;
}

std::size_t SessionScheduler::Offer(
    SessionId id, const std::vector<const std::vector<Value>*>& rows) {
  Session& session = Live(id);
  SJOIN_CHECK_MSG(!session.closed && !session.finishing,
                  "Offer on a finished session");
  SJOIN_CHECK_EQ(rows.size(), session.queued.size());
  const std::size_t steps = rows.empty() ? 0 : rows[0]->size();
  for (const std::vector<Value>* row : rows) {
    SJOIN_CHECK(row != nullptr);
    SJOIN_CHECK_EQ(row->size(), steps);
  }

  const std::size_t backlog = session.queued[0].size();
  std::size_t accepted = 0;
  if (backlog < options_.high_watermark) {
    accepted = std::min(steps, options_.queue_capacity - backlog);
  }
  // else: at or past the watermark — shed the whole offer. Backpressure
  // is all-or-prefix, never reordering: what is accepted is always a
  // prefix of the offer, so the executed stream is a prefix of the
  // offered one and stays bit-comparable to a solo run of that prefix.
  for (std::size_t s = 0; s < rows.size(); ++s) {
    session.queued[s].insert(session.queued[s].end(), rows[s]->begin(),
                             rows[s]->begin() +
                                 static_cast<std::ptrdiff_t>(accepted));
  }
  stats_.steps_offered += static_cast<std::int64_t>(accepted);
  stats_.steps_shed += static_cast<std::int64_t>(steps - accepted);
  return accepted;
}

void SessionScheduler::Finish(SessionId id) {
  Session& session = Live(id);
  if (!session.closed) session.finishing = true;
}

void SessionScheduler::RunWorkItem(StreamEngine& engine, const WorkItem& item,
                                   std::vector<SliceLatency>* latencies) {
  Session& session = *item.session;
  if (item.take > 0) {
    const std::size_t take = static_cast<std::size_t>(item.take);
    for (std::size_t s = 0; s < session.queued.size(); ++s) {
      std::deque<Value>& queue = session.queued[s];
      session.batch[s].assign(queue.begin(),
                              queue.begin() +
                                  static_cast<std::ptrdiff_t>(take));
      queue.erase(queue.begin(), queue.begin() +
                                     static_cast<std::ptrdiff_t>(take));
    }
    Stopwatch stopwatch;
    engine.Advance(session.state, session.batch_ptrs);
    latencies->push_back(
        {item.id, item.take, stopwatch.ElapsedNs()});
  }
  if (item.close_after && session.queued[0].empty()) {
    session.final_result = engine.Close(session.state);
    session.closed = true;
  }
}

std::int64_t SessionScheduler::RunRound() {
  // Plan the round serially: the ready list, each session's quota slice
  // and the session -> worker assignment are all deterministic functions
  // of the queue state, independent of thread count and timing.
  const std::size_t workers = worker_items_.size();
  for (std::vector<WorkItem>& items : worker_items_) items.clear();
  std::int64_t planned = 0;
  std::size_t ready = 0;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& session = sessions_[i];
    if (session.closed) continue;
    const std::size_t backlog = session.queued[0].size();
    const Time quota =
        options_.quota_unit * static_cast<Time>(session.config.weight);
    const Time take =
        std::min<Time>(quota, static_cast<Time>(backlog));
    // A finishing session closes only once its whole queue has executed;
    // with a backlog above quota it advances now and closes in a later
    // round.
    const bool close_after =
        session.finishing && backlog == static_cast<std::size_t>(take);
    if (take == 0 && !close_after) continue;
    WorkItem item;
    item.session = &session;
    item.id = static_cast<SessionId>(i);
    item.take = take;
    item.close_after = close_after;
    worker_items_[ready % workers].push_back(item);
    ++ready;
    planned += take;
  }
  if (ready == 0) return 0;

  // Execute: worker w drains its own item list on its own engine,
  // touching only its sessions and its latency buffer. A size-1 pool
  // runs this inline on the driver thread.
  TaskGroup group(pool_);
  for (std::size_t w = 0; w < workers; ++w) {
    if (worker_items_[w].empty()) continue;
    group.Run([this, w] {
      std::vector<SliceLatency>& latencies = worker_latencies_[w];
      for (const WorkItem& item : worker_items_[w]) {
        RunWorkItem(*engines_[w], item, &latencies);
      }
    });
  }
  group.Wait();

  // Fold thread-local accounting back in deterministic worker order.
  for (std::size_t w = 0; w < workers; ++w) {
    for (const SliceLatency& sample : worker_latencies_[w]) {
      slice_latencies_.push_back(sample);
    }
    worker_latencies_[w].clear();
    for (const WorkItem& item : worker_items_[w]) {
      if (item.session->closed) {
        ++stats_.sessions_closed;
        --live_sessions_;
      }
    }
  }
  stats_.steps_executed += planned;
  ++stats_.rounds;
  return planned;
}

void SessionScheduler::Drain() {
  while (live_sessions_ > 0) {
    const std::int64_t executed = RunRound();
    if (executed > 0) continue;
    // A zero-step round may still have closed drained sessions; stall
    // only when nothing closed either.
    bool progressed = false;
    for (const Session& session : sessions_) {
      if (!session.closed && session.finishing &&
          session.queued[0].empty()) {
        progressed = true;  // Will close next round.
      }
    }
    SJOIN_CHECK_MSG(progressed || live_sessions_ == 0,
                    "SessionScheduler::Drain stalled: a live session has "
                    "no queued work and was never Finish()ed");
  }
}

bool SessionScheduler::closed(SessionId id) const {
  return Live(id).closed;
}

const EngineRunResult& SessionScheduler::result(SessionId id) const {
  const Session& session = Live(id);
  SJOIN_CHECK_MSG(session.closed, "result() before the session closed");
  return session.final_result;
}

std::size_t SessionScheduler::queued_steps(SessionId id) const {
  return Live(id).queued[0].size();
}

}  // namespace serve
}  // namespace sjoin
