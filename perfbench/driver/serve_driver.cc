// serve-small / serve-model: one driver thread generates load and calls
// serve::SessionScheduler, whose worker pool executes the rounds.
//
// Phases of an untraced run (end-to-end metrics):
//   warm-up     untimed; every session serves 2 x capacity steps so caches
//               are full before anything is measured.
//   nominal     open loop: offers of `offer_steps` steps arrive on a fixed
//               wall-clock schedule at the shape's aggregate rate, cycling
//               over the sessions. Each offer is stamped with the time it
//               was due; a step's latency runs from that due time to the
//               end of the RunRound that executed it.
//   saturation  closed loop: before every round each session's queue is
//               topped up to one quota, so every round serves every session.
// A traced run repeats these with the TimedPolicy decorator attached and
// span accounting on, plus an untraced saturation (tracing overhead) and a
// one-worker saturation (parallel speedup).
//
// The untimed check pass serves fresh sessions in irregular slices with a
// TraceHashObserver each and compares every session's fingerprint to a
// solo StreamEngine::Run over the same accepted arrivals.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "drivers.h"
#include "host_facts.h"
#include "sjoin/common/check.h"
#include "sjoin/serve/session_scheduler.h"
#include "spans.h"
#include "timed_policy.h"

namespace perfbench {
namespace {

namespace serve = sjoin::serve;
using sjoin::Time;
using sjoin::Value;

constexpr std::size_t kQueueCapacity = 4096;
/// Rounds of timed set-ups, one set-up per CPU in a round (CpuRotation).
constexpr int kSetupRounds = 8;

/// Everything one set-up builds, in destruction-safe order: the scheduler
/// goes first and the policies, observers and repo it borrows after it.
struct ServeInstance {
  std::unique_ptr<sjoin::ModelRepo> repo;
  std::vector<std::unique_ptr<SessionPolicy>> policies;
  std::vector<std::unique_ptr<TraceHashObserver>> observers;
  std::unique_ptr<serve::SessionScheduler> scheduler;
  std::vector<serve::SessionId> ids;
  int workers = 1;
  std::int64_t refused = 0;
  std::int64_t setup_ns = 0;
  /// Time spent in policy constructions that built a ModelRepo artifact.
  std::int64_t model_build_ns = 0;
};

std::unique_ptr<ServeInstance> BuildInstance(const ServeInputs& inputs,
                                             int workers, bool timed,
                                             bool observed) {
  const std::int64_t start = NowNs();
  auto inst = std::make_unique<ServeInstance>();
  inst->workers = workers;
  inst->repo = std::make_unique<sjoin::ModelRepo>();
  for (const SessionInput& input : inputs.sessions) {
    const std::int64_t builds = inst->repo->stats().builds;
    const std::int64_t t0 = NowNs();
    inst->policies.push_back(
        std::make_unique<SessionPolicy>(input, inst->repo.get(), timed));
    if (inst->repo->stats().builds > builds) {
      inst->model_build_ns += NowNs() - t0;
    }
    if (observed) {
      inst->observers.push_back(std::make_unique<TraceHashObserver>());
    }
  }
  serve::SessionScheduler::Options options;
  options.max_sessions = inputs.sessions.size();
  options.queue_capacity = kQueueCapacity;
  options.quota_unit = inputs.shape.quota_unit;
  options.threads = workers;
  inst->scheduler = std::make_unique<serve::SessionScheduler>(
      sjoin::StreamTopology::Binary(), options);
  for (std::size_t i = 0; i < inputs.sessions.size(); ++i) {
    serve::SessionConfig config;
    config.engine.capacity = inputs.shape.capacity;
    config.engine.warmup = inputs.shape.warmup;
    config.policy = inst->policies[i]->engine_policy();
    if (observed) config.observers = {inst->observers[i].get()};
    const serve::Admission admission = inst->scheduler->Open(config);
    if (!admission.ok()) ++inst->refused;
    inst->ids.push_back(admission.id);
  }
  inst->setup_ns = NowNs() - start;
  return inst;
}

/// Feeds sessions their pre-sampled arrivals in order. A session that
/// outlasts its realization replays it from the start (serve-small's
/// i.i.d. streams make that indistinguishable; serve-model's realizations
/// are sized so it does not happen).
class Feeder {
 public:
  Feeder(const ServeInputs& inputs, ServeInstance& inst)
      : inputs_(inputs),
        inst_(inst),
        offered_(inputs.sessions.size(), 0) {}

  /// Copies the next `steps` arrivals of session `i` into the staging rows.
  void Fill(std::size_t i, Time steps) {
    const SessionInput& input = inputs_.sessions[i];
    const std::size_t len = input.r.size();
    r_.clear();
    s_.clear();
    std::size_t pos = static_cast<std::size_t>(offered_[i]) % len;
    for (Time left = steps; left > 0;) {
      const std::size_t take =
          std::min<std::size_t>(static_cast<std::size_t>(left), len - pos);
      r_.insert(r_.end(), input.r.begin() + pos, input.r.begin() + pos + take);
      s_.insert(s_.end(), input.s.begin() + pos, input.s.begin() + pos + take);
      left -= static_cast<Time>(take);
      pos += take;
      if (pos == len) {
        pos = 0;
        ++replays_;
      }
    }
  }

  /// Offers the staged rows to session `i`; returns the accepted steps.
  Time Offer(std::size_t i) {
    const Time accepted = static_cast<Time>(
        inst_.scheduler->Offer(inst_.ids[i], {&r_, &s_}));
    offered_[i] += accepted;
    attempted_ += static_cast<std::int64_t>(r_.size());
    shed_ += static_cast<std::int64_t>(r_.size()) - accepted;
    return accepted;
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t shed() const { return shed_; }
  std::int64_t replays() const { return replays_; }

 private:
  const ServeInputs& inputs_;
  ServeInstance& inst_;
  std::vector<Time> offered_;
  std::vector<Value> r_;
  std::vector<Value> s_;
  std::int64_t attempted_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t replays_ = 0;
};

/// Sums of TimedPolicy counters, per session kind.
struct SelectTotals {
  TimedPolicy::Stats by_kind[kNumSessionKinds];

  TimedPolicy::Stats all() const {
    TimedPolicy::Stats sum;
    for (const TimedPolicy::Stats& s : by_kind) {
      sum.ns += s.ns;
      sum.calls += s.calls;
      sum.candidates += s.candidates;
    }
    return sum;
  }
};

/// Drives one instance through its phases, with optional span accounting.
class ServeRun {
 public:
  ServeRun(const ServeInputs& inputs, ServeInstance& inst, SpanTable* spans)
      : inputs_(inputs),
        inst_(inst),
        feeder_(inputs, inst),
        spans_(spans),
        seen_(inputs.sessions.size()) {}

  Feeder& feeder() { return feeder_; }
  const SelectTotals& select_totals() const { return select_totals_; }
  serve::SessionScheduler& scheduler() { return *inst_.scheduler; }

  /// Serves every session `steps` steps, closed loop, untimed.
  void WarmUp(Time steps) {
    for (std::size_t i = 0; i < inputs_.sessions.size(); ++i) {
      feeder_.Fill(i, steps);
      feeder_.Offer(i);
    }
    while (scheduler().RunRound() > 0) {
    }
    FoldSelects(/*count=*/false);
    slice_cursor_ = scheduler().slice_latencies().size();
  }

  struct Nominal {
    /// Per window (by due time): step-weighted latency samples.
    std::vector<std::vector<WeightedSample>> latency;
    /// Traced runs only: the latency split at the round start.
    std::vector<WeightedSample> wait;
    std::vector<WeightedSample> exec;
    /// CPU time stolen by the hypervisor during each window, s.
    std::vector<double> steal_s;
    /// How late each offer was made, ns past its due time.
    std::vector<double> late_ns;
    std::int64_t rounds = 0;
    std::int64_t steps = 0;
    std::int64_t offered_steps = 0;
    std::int64_t offer_ns = 0;
    std::int64_t backlog_max = 0;
  };

  Nominal RunNominal(double seconds) {
    Nominal out;
    const std::size_t n = inputs_.sessions.size();
    const Time batch = inputs_.shape.offer_steps;
    const double interval_ns =
        1e9 * static_cast<double>(batch) / inputs_.shape.nominal_steps_per_s;
    // Per session: queued steps the driver knows of, and FIFO runs of
    // (due time, steps) still waiting to execute.
    std::vector<std::int64_t> queued(n, 0);
    std::vector<std::vector<WeightedSample>> due(n);
    std::vector<std::size_t> due_head(n, 0);
    std::vector<std::size_t> pending;
    const std::int64_t begin = NowNs() + 1000000;  // 1 ms lead.
    const std::int64_t end =
        begin + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t windows = static_cast<std::size_t>(
        std::ceil(seconds * 1e9 / static_cast<double>(kWindowNs)));
    const double window_ns = static_cast<double>(kWindowNs);
    out.latency.resize(windows);
    if (spans_ != nullptr) spans_->BeginPhase("nominal", begin, workers());
    std::vector<double> steal_at;  // Readings at window boundaries.
    std::int64_t k = 0;
    auto due_of = [&](std::int64_t index) {
      return begin + std::llround(static_cast<double>(index) * interval_ns);
    };
    for (;;) {
      std::int64_t now = NowNs();
      while (steal_at.size() <= windows &&
             now >= begin + static_cast<std::int64_t>(steal_at.size()) *
                                kWindowNs) {
        steal_at.push_back(StealSeconds());
      }
      if (now >= end) break;
      std::int64_t next_due = due_of(k);
      if (next_due > now && pending.empty()) {
        // Idle until the next offer is due: sleep most of a long gap, spin
        // the rest.
        const std::int64_t idle_start = now;
        if (next_due - now > 200000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(next_due - now - 100000));
        }
        while ((now = NowNs()) < next_due) {
        }
        if (spans_ != nullptr) spans_->pending().wait_ns += now - idle_start;
      }
      // Offer everything due by now.
      while ((next_due = due_of(k)) <= now && next_due < end) {
        const std::size_t i =
            static_cast<std::size_t>(k % static_cast<std::int64_t>(n));
        const std::int64_t t_gen = NowNs();
        feeder_.Fill(i, batch);
        const std::int64_t t_offer = NowNs();
        const Time accepted = feeder_.Offer(i);
        const std::int64_t t_done = NowNs();
        out.late_ns.push_back(static_cast<double>(t_offer - next_due));
        out.offer_ns += t_done - t_offer;
        out.offered_steps += accepted;
        if (spans_ != nullptr) {
          SpanRow& acc = spans_->pending();
          acc.gen_ns += t_offer - t_gen;
          acc.offer_ns += t_done - t_offer;
          ++acc.offers;
          acc.offer_steps += accepted;
        }
        if (accepted > 0) {
          if (queued[i] == 0) pending.push_back(i);
          queued[i] += accepted;
          due[i].push_back({next_due, accepted});
        }
        ++k;
        now = t_done;
      }
      if (pending.empty()) continue;

      std::int64_t backlog = 0;
      for (std::size_t i : pending) backlog += queued[i];
      out.backlog_max = std::max(out.backlog_max, backlog);
      const std::int64_t round_start = NowNs();
      const std::int64_t executed = scheduler().RunRound();
      const std::int64_t round_end = NowNs();
      ++out.rounds;
      out.steps += executed;

      // Pop each session's executed steps off its due runs, oldest first.
      std::size_t keep = 0;
      for (std::size_t i : pending) {
        const std::int64_t left =
            static_cast<std::int64_t>(scheduler().queued_steps(inst_.ids[i]));
        std::int64_t done = queued[i] - left;
        queued[i] = left;
        while (done > 0) {
          WeightedSample& run = due[i][due_head[i]];
          const std::int64_t take = std::min(done, run.weight);
          const std::size_t window = std::min<std::size_t>(
              windows - 1,
              static_cast<std::size_t>(static_cast<double>(run.value - begin) /
                                       window_ns));
          out.latency[window].push_back({round_end - run.value, take});
          if (spans_ != nullptr) {
            out.wait.push_back({round_start - run.value, take});
            out.exec.push_back({round_end - round_start, take});
          }
          run.weight -= take;
          done -= take;
          if (run.weight == 0) ++due_head[i];
        }
        if (due_head[i] == due[i].size()) {
          due[i].clear();
          due_head[i] = 0;
        }
        if (left > 0) pending[keep++] = i;
      }
      pending.resize(keep);
      if (spans_ != nullptr) {
        FoldSelects(/*count=*/false);
        const SliceSum slices = SliceSums();
        spans_->EndRound(round_start, round_end, executed, slices,
                         round_selects_, NowNs());
      }
    }
    if (spans_ != nullptr) spans_->EndPhase(NowNs());
    while (steal_at.size() <= windows) steal_at.push_back(StealSeconds());
    for (std::size_t w = 0; w < windows; ++w) {
      out.steal_s.push_back(out.latency[w].empty()
                                ? std::numeric_limits<double>::infinity()
                                : steal_at[w + 1] - steal_at[w]);
    }
    return out;
  }

  struct Saturation {
    /// Per round: steps/s over the top-up and the round.
    std::vector<double> window_steps_per_s;
    /// CPU time stolen by the hypervisor during each window, s.
    std::vector<double> steal_s;
    std::int64_t steps = 0;
    std::int64_t rounds = 0;
    std::int64_t round_ns = 0;
    std::int64_t slice_ns = 0;
    std::int64_t wall_ns = 0;

    /// The reported rate: median over the least-stolen windows.
    double steps_per_s() const {
      return MedianOver(window_steps_per_s, LeastStolen(steal_s));
    }
  };

  /// Each round (with the top-up before it) is one window.
  Saturation RunSaturation(double seconds, const char* phase_name) {
    Saturation out;
    const std::size_t n = inputs_.sessions.size();
    const Time quota = inputs_.shape.quota_unit;
    const std::int64_t begin = NowNs();
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    if (spans_ != nullptr) spans_->BeginPhase(phase_name, begin, workers());
    slice_cursor_ = scheduler().slice_latencies().size();
    double steal_before = StealSeconds();
    for (std::int64_t window_begin = NowNs(); window_begin < end;) {
      for (std::size_t i = 0; i < n; ++i) {
        const Time want =
            quota - static_cast<Time>(scheduler().queued_steps(inst_.ids[i]));
        if (want <= 0) continue;
        const std::int64_t t_gen = spans_ != nullptr ? NowNs() : 0;
        feeder_.Fill(i, want);
        const std::int64_t t_offer = spans_ != nullptr ? NowNs() : 0;
        feeder_.Offer(i);
        if (spans_ != nullptr) {
          SpanRow& acc = spans_->pending();
          const std::int64_t t_done = NowNs();
          acc.gen_ns += t_offer - t_gen;
          acc.offer_ns += t_done - t_offer;
          ++acc.offers;
          acc.offer_steps += want;
        }
      }
      const std::int64_t round_start = NowNs();
      const std::int64_t executed = scheduler().RunRound();
      const std::int64_t round_end = NowNs();
      const double steal_after = StealSeconds();
      out.steps += executed;
      ++out.rounds;
      out.round_ns += round_end - round_start;
      out.window_steps_per_s.push_back(
          static_cast<double>(executed) /
          (static_cast<double>(round_end - window_begin) * 1e-9));
      out.steal_s.push_back(steal_after - steal_before);
      steal_before = steal_after;
      const SliceSum slices = SliceSums();
      out.slice_ns += slices.ns;
      if (spans_ != nullptr) {
        FoldSelects(/*count=*/true);
        spans_->EndRound(round_start, round_end, executed, slices,
                         round_selects_, NowNs());
      }
      window_begin = NowNs();
    }
    out.wall_ns = NowNs() - begin;
    if (spans_ != nullptr) spans_->EndPhase(NowNs());
    return out;
  }

  /// Finishes every session and drains the queues; returns the sessions'
  /// total result tuples.
  std::int64_t FinishAndDrain() {
    for (serve::SessionId id : inst_.ids) scheduler().Finish(id);
    scheduler().Drain();
    std::int64_t results = 0;
    for (serve::SessionId id : inst_.ids) {
      results += scheduler().result(id).total_results;
    }
    return results;
  }

 private:
  int workers() const { return inst_.workers; }

  /// Sums the Advance slices the scheduler logged since the last call.
  SliceSum SliceSums() {
    const std::vector<serve::SliceLatency>& log =
        scheduler().slice_latencies();
    SliceSum sum;
    for (; slice_cursor_ < log.size(); ++slice_cursor_) {
      sum.ns += log[slice_cursor_].ns;
      sum.steps += log[slice_cursor_].steps;
      ++sum.slices;
    }
    return sum;
  }

  /// Folds every decorator's counters since the last fold into
  /// round_selects_ (and into the per-kind totals when `count`).
  void FoldSelects(bool count) {
    round_selects_ = TimedPolicy::Stats{};
    for (std::size_t i = 0; i < inst_.policies.size(); ++i) {
      const TimedPolicy* timed = inst_.policies[i]->timed();
      if (timed == nullptr) return;
      const TimedPolicy::Stats& now = timed->stats();
      TimedPolicy::Stats delta{now.ns - seen_[i].ns, now.calls - seen_[i].calls,
                               now.candidates - seen_[i].candidates};
      seen_[i] = now;
      round_selects_.ns += delta.ns;
      round_selects_.calls += delta.calls;
      round_selects_.candidates += delta.candidates;
      if (count) {
        TimedPolicy::Stats& kind = select_totals_.by_kind[static_cast<int>(
            inputs_.sessions[i].kind)];
        kind.ns += delta.ns;
        kind.calls += delta.calls;
        kind.candidates += delta.candidates;
      }
    }
  }

  const ServeInputs& inputs_;
  ServeInstance& inst_;
  Feeder feeder_;
  SpanTable* spans_;
  std::vector<TimedPolicy::Stats> seen_;
  TimedPolicy::Stats round_selects_;
  SelectTotals select_totals_;
  std::size_t slice_cursor_ = 0;
};

double MsOf(double ns) { return ns * 1e-6; }

/// a / b, or 0 when b is 0.
double Per(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// The untimed check pass: fresh sessions served in irregular slices,
/// each session's fingerprint compared with a solo StreamEngine::Run over
/// its accepted arrivals, plus the perturbation self-test.
void CheckOutputs(const ServeInputs& inputs, RunReport* report) {
  auto inst = BuildInstance(inputs, inputs.shape.workers, /*timed=*/false,
                            /*observed=*/true);
  const std::size_t n = inputs.sessions.size();
  const Time len = inputs.shape.check_steps;
  report->Check(static_cast<std::int64_t>(n), inst->refused);
  if (inst->refused > 0) return;
  // Offer chunks of 1..37 steps in a session-dependent rotation and run a
  // round after each sweep, so sessions are sliced unlike a solo run.
  std::vector<Time> offered(n, 0);
  std::vector<Value> r;
  std::vector<Value> s;
  for (int sweep = 0;; ++sweep) {
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (offered[i] >= len) continue;
      const std::size_t rotation = i * 13 + static_cast<std::size_t>(sweep) * 7;
      const Time chunk = std::min<Time>(1 + static_cast<Time>(rotation % 37),
                                        len - offered[i]);
      const SessionInput& input = inputs.sessions[i];
      r.assign(input.r.begin() + offered[i],
               input.r.begin() + offered[i] + chunk);
      s.assign(input.s.begin() + offered[i],
               input.s.begin() + offered[i] + chunk);
      const Time accepted =
          static_cast<Time>(inst->scheduler->Offer(inst->ids[i], {&r, &s}));
      offered[i] += accepted;
      if (offered[i] >= len) inst->scheduler->Finish(inst->ids[i]);
      any = true;
    }
    if (!any) break;
    inst->scheduler->RunRound();
  }
  inst->scheduler->Drain();

  auto solo = [&](const SessionInput& input, const std::vector<Value>& rs,
                  const std::vector<Value>& ss,
                  sjoin::StepObserver* extra = nullptr) {
    sjoin::ModelRepo repo;
    SessionPolicy policy(input, &repo, /*timed=*/false);
    TraceHashObserver observer;
    std::vector<sjoin::StepObserver*> observers = {&observer};
    if (extra != nullptr) observers.push_back(extra);
    sjoin::StreamEngine engine(
        sjoin::StreamTopology::Binary(),
        {.capacity = inputs.shape.capacity, .warmup = inputs.shape.warmup});
    const sjoin::EngineRunResult result =
        engine.Run({&rs, &ss}, *policy.engine_policy(), observers);
    return Fingerprint{result.counted_results, result.total_results,
                       observer.hash()};
  };

  // The reference runs also find the arrival the self-test perturbs: the
  // first session with a stream-0 arrival that joins the cache on arrival
  // (two random walks can drift apart and never offer one).
  std::size_t probe = n;
  Time probe_at = -1;
  Fingerprint probe_served;
  std::int64_t bad = 0;
  std::int64_t vacuous = 0;
  std::int64_t results = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SessionInput& input = inputs.sessions[i];
    const sjoin::EngineRunResult& result =
        inst->scheduler->result(inst->ids[i]);
    const Fingerprint served{result.counted_results, result.total_results,
                             inst->observers[i]->hash()};
    const std::vector<Value> rs(input.r.begin(), input.r.begin() + len);
    const std::vector<Value> ss(input.s.begin(), input.s.begin() + len);
    JoiningArrivalFinder finder(&rs, {1});
    const Fingerprint reference = solo(input, rs, ss, &finder);
    results += served.total_results;
    if (served.vacuous()) ++vacuous;
    if (served.vacuous() || !(served == reference)) {
      ++bad;
      std::fprintf(stderr,
                   "check: session %zu (%s) served %lld/%lld results hash "
                   "%016llx, solo %lld/%lld results hash %016llx\n",
                   i, KindName(input.kind),
                   static_cast<long long>(served.counted_results),
                   static_cast<long long>(served.total_results),
                   static_cast<unsigned long long>(served.trace_hash),
                   static_cast<long long>(reference.counted_results),
                   static_cast<long long>(reference.total_results),
                   static_cast<unsigned long long>(reference.trace_hash));
    }
    if (probe == n && finder.found() >= 0 && input.reduction == nullptr) {
      probe = i;
      probe_at = finder.found();
      probe_served = served;
    }
  }
  if (results == 0) {
    ++bad;
    ++vacuous;
  }
  report->Check(static_cast<std::int64_t>(n), bad);
  report->Note("check.sessions", static_cast<double>(n), "count");
  report->Note("check.mismatches", static_cast<double>(bad - vacuous), "count");
  report->Note("check.vacuous", static_cast<double>(vacuous), "count");

  // Self-test: that session's reference input with the joining arrival
  // replaced by a value no stream contains must fail the comparison.
  bool detected = false;
  if (probe < n) {
    const SessionInput& input = inputs.sessions[probe];
    std::vector<Value> rs(input.r.begin(), input.r.begin() + len);
    const std::vector<Value> ss(input.s.begin(), input.s.begin() + len);
    rs[static_cast<std::size_t>(probe_at)] =
        JoiningArrivalFinder::UnseenValue({&rs, &ss});
    detected = !(solo(input, rs, ss) == probe_served);
  }
  report->Check(1, detected ? 0 : 1);
  report->Note("check.selftest_detected", detected ? 1.0 : 0.0, "bool");
}

}  // namespace

RunReport RunServe(const RunConfig& config) {
  RunReport report;
  // Realizations long enough that serve-model does not replay below 100k
  // steps/s (it saturates near 40k); serve-small replays its i.i.d.
  // streams instead of holding 1024 long ones.
  const ServeShape shape = ShapeOf(config.workload);
  const bool small = config.workload == Workload::kServeSmall;
  const Time model_len =
      static_cast<Time>(config.seconds * 100000.0 / 64.0) +
      4 * static_cast<Time>(shape.capacity);
  const Time len =
      small ? 4096 : std::max<Time>(shape.check_steps, model_len);
  const ServeInputs inputs =
      SampleServeInputs(config.workload, config.seed, len);
  // Memory figures count what the run adds to the pre-sampled inputs.
  const double inputs_mb = ResidentMb();

  // Set-up, timed with the driver thread pinned to each CPU in turn (the
  // workers of a timed instance inherit the pin, so none of those is
  // measured), then the instance measured, built unpinned.
  std::vector<double> setup_s;
  std::size_t setup_round = 1;
  {
    const CpuRotation rotation;
    setup_round = rotation.size();
    for (std::size_t k = 0; k < kSetupRounds * setup_round; ++k) {
      rotation.Pin(k);
      setup_s.push_back(
          static_cast<double>(
              BuildInstance(inputs, shape.workers, config.trace, false)
                  ->setup_ns) *
          1e-9);
    }
  }
  std::unique_ptr<ServeInstance> inst =
      BuildInstance(inputs, shape.workers, config.trace, false);
  report.attempted += static_cast<std::int64_t>(inputs.sessions.size());
  report.failed += inst->refused;
  if (inst->refused > 0) {
    report.correct = false;
    return report;
  }
  const Time warm_steps = 2 * static_cast<Time>(shape.capacity);

  if (!config.trace) {
    ServeRun run(inputs, *inst, nullptr);
    run.WarmUp(warm_steps);
    const ServeRun::Nominal nominal = run.RunNominal(config.seconds * 0.5);
    // Sessions keep their stream history, so memory grows with the steps
    // served. The nominal phase serves a fixed number (its rate times its
    // length); the saturation phase serves as many as the host allows, so
    // the memory figure is taken before it.
    report.Add("peak_rss_mb", PeakRssMb() - inputs_mb, "MiB");
    const ServeRun::Saturation saturation =
        run.RunSaturation(config.seconds * 0.5, "saturation");
    const std::vector<std::size_t> quiet = LeastStolen(nominal.steal_s);
    auto latency_ms = [&](double q) {
      std::vector<double> per_window;
      for (const auto& window : nominal.latency) {
        per_window.push_back(WeightedQuantile(window, q));
      }
      return MsOf(MedianOver(per_window, quiet));
    };
    report.Add("latency_p50_ms", latency_ms(0.50), "ms");
    report.Add("steps_per_s", saturation.steps_per_s(), "1/s");
    report.Add("setup_s", Median(RoundMeans(setup_s, setup_round)), "s");
    report.attempted += run.feeder().attempted();
    report.failed += run.feeder().shed();
    report.Note("latency_p90_ms", latency_ms(0.90), "ms");
    report.Note("latency_p99_ms", latency_ms(0.99), "ms");
    report.Note("nominal.steps", static_cast<double>(nominal.steps), "count");
    report.Note("nominal.shed_steps", static_cast<double>(run.feeder().shed()),
                "count");
    report.Note("gen.late_ms_p99", MsOf(Quantile(nominal.late_ns, 0.99)), "ms");
    report.Note("saturation.steps", static_cast<double>(saturation.steps),
                "count");
    report.Note("saturation.median_steps_per_s",
                Median(saturation.window_steps_per_s), "1/s");
    report.Note("gen.replays", static_cast<double>(run.feeder().replays()),
                "count");
  } else {
    // Untraced saturation first, on an instance without decorators: the
    // tracing-overhead baseline.
    double untraced_steps_per_s = 0.0;
    {
      auto plain = BuildInstance(inputs, shape.workers, false, false);
      ServeRun run(inputs, *plain, nullptr);
      run.WarmUp(warm_steps);
      untraced_steps_per_s =
          run.RunSaturation(config.seconds * 0.2, "saturation").steps_per_s();
    }
    SpanTable spans;
    ServeRun run(inputs, *inst, &spans);
    run.WarmUp(warm_steps);
    const ServeRun::Nominal nominal = run.RunNominal(config.seconds * 0.3);
    const ServeRun::Saturation saturation =
        run.RunSaturation(config.seconds * 0.2, "saturation");
    const std::int64_t results = run.FinishAndDrain();
    const std::int64_t executed = run.scheduler().stats().steps_executed;
    double single_steps_per_s = 0.0;
    {
      auto single = BuildInstance(inputs, 1, false, false);
      ServeRun one(inputs, *single, nullptr);
      one.WarmUp(warm_steps);
      single_steps_per_s =
          one.RunSaturation(config.seconds * 0.2, "saturation-1w")
              .steps_per_s();
    }
    const double steps = static_cast<double>(saturation.steps);
    const double worker_ns =
        static_cast<double>(shape.workers) *
        static_cast<double>(saturation.round_ns);
    const double slice_ns = static_cast<double>(saturation.slice_ns);
    const SelectTotals& selects = run.select_totals();
    const TimedPolicy::Stats all = selects.all();

    report.Add("serve.offer_ns_per_step",
               Per(nominal.offer_ns, nominal.offered_steps), "ns");
    report.Add("serve.wait_ms_p50", MsOf(WeightedQuantile(nominal.wait, 0.5)),
               "ms");
    report.Add("serve.exec_ms_p50", MsOf(WeightedQuantile(nominal.exec, 0.5)),
               "ms");
    report.Add("serve.busy_share", Per(slice_ns, worker_ns), "share");
    report.Add("serve.overhead_ns_per_step", Per(worker_ns - slice_ns, steps),
               "ns");
    report.Add("serve.steps_per_round", Per(nominal.steps, nominal.rounds),
               "count");
    report.Add("serve.backlog_steps_max",
               static_cast<double>(nominal.backlog_max), "count");
    report.Add("serve.parallel_speedup",
               Per(untraced_steps_per_s, single_steps_per_s), "ratio");
    report.Add("engine.ns_per_step", Per(slice_ns, steps), "ns");
    report.Add("engine.self_ns_per_step",
               Per(slice_ns - static_cast<double>(all.ns), steps), "ns");
    report.Add("engine.candidates_per_step", Per(all.candidates, all.calls),
               "count");
    report.Add("engine.results_per_step", Per(results, executed), "count");
    for (int k = 0; k < kNumSessionKinds; ++k) {
      const SessionKind kind = static_cast<SessionKind>(k);
      const TimedPolicy::Stats& stats = selects.by_kind[k];
      if (stats.calls == 0) continue;
      const std::string layer =
          kind == SessionKind::kProb ? "policies" : "core";
      report.Add(layer + ".select_ns_per_step." + KindName(kind),
                 Per(stats.ns, stats.calls), "ns");
    }
    if (!small) {
      report.Add("core.ns_per_candidate", Per(all.ns, all.candidates), "ns");
      const sjoin::ModelRepo::Stats repo = inst->repo->stats();
      report.Add("core.model_build_ms",
                 static_cast<double>(inst->model_build_ns) * 1e-6, "ms");
      report.Add("core.model_builds", static_cast<double>(repo.builds),
                 "count");
      report.Add("core.model_hit_share", Per(repo.hits, repo.lookups),
                 "share");
    }
    report.Add("gen.late_ms_p99", MsOf(Quantile(nominal.late_ns, 0.99)), "ms");
    report.Add("trace.overhead_share",
               Per(untraced_steps_per_s, saturation.steps_per_s()) - 1.0,
               "share");
    report.attempted += run.feeder().attempted();
    report.failed += run.feeder().shed();
    report.spans_csv = spans.Csv();
  }
  CheckOutputs(inputs, &report);
  return report;
}

}  // namespace perfbench
