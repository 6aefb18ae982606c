// batch-star5: MULTI-HEEB on the STAR5 linear-trend workload through the
// MultiJoinSimulator façade (planner and score memo on, one shard, one
// thread, no serve layer). Each job is one façade Run over a fixed-length
// realization; jobs cycle over the pre-sampled realizations back to back.
// A job's latency is its Run's wall time, input to complete result.
// Passes take turns on the host's CPUs, one pass per CPU in a round, so a
// CPU that other tenants slow down weighs the same in every run.
//
// The untimed check compares every realization's planner-on fingerprint
// with its planner-off run (the planner is cost-only, so both must decide
// identically), and a perturbed planner-off input must differ.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "drivers.h"
#include "host_facts.h"
#include "sjoin/multi/multi_heeb_policy.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "spans.h"
#include "timed_policy.h"

namespace perfbench {
namespace {

/// A set-up sample times this many constructions, so it lasts about half
/// a millisecond rather than the few hundred nanoseconds of one; a sample
/// is its time divided by the count.
constexpr int kSetupBatch = 1000;
/// Set-up samples after each pass; the pass's figure is their median.
constexpr int kSetupSamples = 5;

/// One set-up: the façade and its policy, optionally decorated.
struct Star5Instance {
  Star5Instance(const Star5Inputs& inputs, bool planner, bool timed)
      : simulator(inputs.shape.num_streams, inputs.shape.edges,
                  {.capacity = inputs.shape.capacity,
                   .warmup = inputs.shape.warmup,
                   .shards = 1,
                   .threads = 1,
                   .planner = planner}),
        policy(inputs.model_ptrs, &simulator,
               {.alpha = inputs.shape.alpha,
                .horizon = inputs.shape.horizon,
                .use_score_cache = planner}) {
    if (timed) decorator = std::make_unique<TimedPolicy>(&policy);
  }

  sjoin::EnginePolicy& engine_policy() {
    if (decorator != nullptr) return *decorator;
    return policy;
  }

  sjoin::MultiJoinSimulator simulator;
  sjoin::MultiHeebPolicy policy;
  std::unique_ptr<TimedPolicy> decorator;
};

/// Planner-on vs planner-off fingerprints per realization, and the
/// perturbation self-test.
void CheckOutputs(const Star5Inputs& inputs, RunReport* report) {
  auto fingerprint = [&](const std::vector<std::vector<sjoin::Value>>& streams,
                         bool planner) {
    Star5Instance inst(inputs, planner, /*timed=*/true);
    const sjoin::MultiJoinRunResult result =
        inst.simulator.Run(streams, inst.engine_policy());
    return Fingerprint{result.counted_results, result.total_results,
                       inst.decorator->trace_hash()};
  };
  std::int64_t bad = 0;
  std::int64_t results = 0;
  Fingerprint first;
  for (std::size_t i = 0; i < inputs.realizations.size(); ++i) {
    const Fingerprint on = fingerprint(inputs.realizations[i], true);
    const Fingerprint off = fingerprint(inputs.realizations[i], false);
    results += on.total_results;
    if (on.vacuous() || !(on == off)) ++bad;
    if (i == 0) first = on;
  }
  if (results == 0) ++bad;
  report->Check(static_cast<std::int64_t>(inputs.realizations.size()), bad);
  report->Note("check.mismatches", static_cast<double>(bad), "count");

  // Self-test: realization 0 with one joining arrival of the hub stream
  // replaced by a value no stream contains must fail the comparison. The
  // arrival is found on an observed engine run of the planner-off policy.
  const auto& streams = inputs.realizations[0];
  Star5Instance probe(inputs, /*planner=*/false, /*timed=*/false);
  std::vector<const std::vector<sjoin::Value>*> rows;
  for (const auto& stream : streams) rows.push_back(&stream);
  JoiningArrivalFinder finder(&streams[0], probe.simulator.PartnersOf(0));
  sjoin::StreamEngine(probe.simulator.topology(),
                      {.capacity = inputs.shape.capacity,
                       .warmup = inputs.shape.warmup})
      .Run(rows, probe.policy, {&finder});
  bool detected = false;
  if (finder.found() >= 0) {
    std::vector<std::vector<sjoin::Value>> perturbed = streams;
    perturbed[0][static_cast<std::size_t>(finder.found())] =
        JoiningArrivalFinder::UnseenValue(rows);
    detected = !(fingerprint(perturbed, false) == first);
  }
  report->Check(1, detected ? 0 : 1);
  report->Note("check.selftest_detected", detected ? 1.0 : 0.0, "bool");
}

struct Jobs {
  /// Passes per round: one on each CPU.
  std::size_t round_size = 1;
  /// Per pass (every realization once): job wall times, ns.
  std::vector<std::vector<double>> passes;
  /// CPU time stolen by the hypervisor during each pass, s.
  std::vector<double> steal_s;
  std::int64_t jobs = 0;
  std::int64_t steps = 0;
  std::int64_t results = 0;
  std::int64_t run_ns = 0;
  sjoin::EngineTelemetry telemetry;
};

/// Runs rounds of passes over the realizations back to back until
/// `seconds` have passed (at least one round), each pass of a round pinned
/// to another CPU. Calls `between_passes` (if set) untimed after each pass.
Jobs RunJobs(const Star5Inputs& inputs, Star5Instance& inst, double seconds,
             SpanTable* spans, const char* phase,
             const std::function<void()>& between_passes = nullptr) {
  Jobs out;
  const CpuRotation rotation;
  out.round_size = rotation.size();
  const std::int64_t begin = NowNs();
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  if (spans != nullptr) spans->BeginPhase(phase, begin, 1);
  TimedPolicy::Stats seen;
  if (inst.decorator != nullptr) seen = inst.decorator->stats();
  for (std::size_t k = 0; k % out.round_size != 0 || NowNs() < end ||
                          out.passes.empty();
       ++k) {
    rotation.Pin(k % out.round_size);
    std::vector<double>& pass = out.passes.emplace_back();
    const double steal_begin = StealSeconds();
    for (const auto& streams : inputs.realizations) {
      const std::int64_t start = NowNs();
      const sjoin::MultiJoinRunResult result =
          inst.simulator.Run(streams, inst.engine_policy());
      const std::int64_t stop = NowNs();
      pass.push_back(static_cast<double>(stop - start));
      ++out.jobs;
      out.run_ns += stop - start;
      out.steps += inputs.shape.job_steps;
      out.results += result.total_results;
      out.telemetry.probes += result.telemetry.probes;
      out.telemetry.probe_skips += result.telemetry.probe_skips;
      out.telemetry.probe_cache_hits += result.telemetry.probe_cache_hits;
      out.telemetry.plan_replans += result.telemetry.plan_replans;
      if (spans != nullptr) {
        const TimedPolicy::Stats& now = inst.decorator->stats();
        const TimedPolicy::Stats delta{now.ns - seen.ns,
                                       now.calls - seen.calls,
                                       now.candidates - seen.candidates};
        seen = now;
        spans->EndRound(start, stop, inputs.shape.job_steps,
                        SliceSum{stop - start, inputs.shape.job_steps, 1},
                        delta, NowNs());
      }
    }
    out.steal_s.push_back(StealSeconds() - steal_begin);
    if (between_passes) between_passes();
  }
  if (spans != nullptr) spans->EndPhase(NowNs());
  return out;
}

/// Constructs kSetupBatch instances, each replacing the last (so the
/// sample's memory stays that of one), and returns the seconds per set-up.
double SetupSample(const Star5Inputs& inputs, bool timed) {
  std::optional<Star5Instance> inst;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSetupBatch; ++i) inst.emplace(inputs, true, timed);
  const std::int64_t stop = NowNs();
  return static_cast<double>(stop - start) * 1e-9 / kSetupBatch;
}

double Share(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

RunReport RunBatchStar5(const RunConfig& config) {
  RunReport report;
  const Star5Inputs inputs = SampleStar5Inputs(config.seed);

  // Memory figures count what the run adds to the pre-sampled inputs.
  const double inputs_mb = ResidentMb();

  auto inst = std::make_unique<Star5Instance>(inputs, true, config.trace);
  // One untimed job lets lazy state settle before anything is measured.
  inst->simulator.Run(inputs.realizations[0], inst->engine_policy());

  if (!config.trace) {
    // Set-up samples after every pass, on that pass's CPU.
    std::vector<double> setup_s;
    const Jobs jobs =
        RunJobs(inputs, *inst, config.seconds, nullptr, "jobs", [&] {
          std::vector<double> samples;
          for (int i = 0; i < kSetupSamples; ++i) {
            samples.push_back(SetupSample(inputs, false));
          }
          setup_s.push_back(Median(std::move(samples)));
        });
    // One figure per round: the mean over its passes (one per CPU) of the
    // pass's figure, so every round weighs the CPUs alike. Then the median
    // over the least-stolen rounds (over every round for set-up, whose
    // half-millisecond samples a stall seldom hits).
    std::vector<double> pass_p50;
    std::vector<double> pass_p90;
    std::vector<double> pass_ns;
    for (const std::vector<double>& pass : jobs.passes) {
      pass_p50.push_back(Quantile(pass, 0.50) * 1e-6);
      pass_p90.push_back(Quantile(pass, 0.90) * 1e-6);
      double ns = 0.0;
      for (double job_ns : pass) ns += job_ns;
      pass_ns.push_back(ns);
    }
    const std::size_t n = jobs.round_size;
    const double pass_steps = static_cast<double>(inputs.shape.job_steps) *
                              static_cast<double>(inputs.realizations.size());
    std::vector<double> steps_per_s;
    for (double ns : RoundMeans(pass_ns, n)) {
      steps_per_s.push_back(pass_steps / (ns * 1e-9));
    }
    const std::vector<std::size_t> quiet =
        LeastStolen(RoundMeans(jobs.steal_s, n));
    report.Add("latency_p50_ms", MedianOver(RoundMeans(pass_p50, n), quiet),
               "ms");
    report.Add("steps_per_s", MedianOver(steps_per_s, quiet), "1/s");
    report.Add("setup_s", Median(RoundMeans(setup_s, n)), "s");
    report.Add("peak_rss_mb", PeakRssMb() - inputs_mb, "MiB");
    report.Note("latency_p90_ms", MedianOver(RoundMeans(pass_p90, n), quiet),
                "ms");
    report.attempted += jobs.jobs;
    report.Note("jobs", static_cast<double>(jobs.jobs), "count");
    report.Note("passes", static_cast<double>(jobs.passes.size()), "count");
    report.Note("rounds", static_cast<double>(steps_per_s.size()), "count");
  } else {
    Star5Instance plain(inputs, true, false);
    const Jobs untraced =
        RunJobs(inputs, plain, config.seconds * 0.4, nullptr, "untraced");
    SpanTable spans;
    const Jobs traced =
        RunJobs(inputs, *inst, config.seconds * 0.6, &spans, "jobs");
    const TimedPolicy::Stats& select = inst->decorator->stats();
    const double steps = static_cast<double>(traced.steps);
    const std::int64_t probes = traced.telemetry.probes;
    report.Add("engine.ns_per_step", static_cast<double>(traced.run_ns) / steps,
               "ns");
    report.Add("engine.self_ns_per_step",
               static_cast<double>(traced.run_ns - select.ns) / steps, "ns");
    report.Add("engine.candidates_per_step",
               static_cast<double>(select.candidates) /
                   static_cast<double>(select.calls),
               "count");
    report.Add("engine.results_per_step",
               static_cast<double>(traced.results) / steps, "count");
    report.Add("core.ns_per_candidate",
               static_cast<double>(select.ns) /
                   static_cast<double>(select.candidates),
               "ns");
    report.Add("multi.select_ns_per_step",
               static_cast<double>(select.ns) /
                   static_cast<double>(select.calls),
               "ns");
    report.Add("multi.probes_per_step", static_cast<double>(probes) / steps,
               "count");
    report.Add("multi.probe_skip_share",
               Share(traced.telemetry.probe_skips, probes), "share");
    report.Add("multi.probe_cache_hit_share",
               Share(traced.telemetry.probe_cache_hits, probes), "share");
    report.Add("multi.plan_replans",
               static_cast<double>(traced.telemetry.plan_replans) /
                   static_cast<double>(traced.jobs),
               "count");
    const double untraced_rate = static_cast<double>(untraced.steps) /
                                 static_cast<double>(untraced.run_ns);
    const double traced_rate = steps / static_cast<double>(traced.run_ns);
    report.Add("trace.overhead_share", untraced_rate / traced_rate - 1.0,
               "share");
    report.attempted += untraced.jobs + traced.jobs;
    report.spans_csv = spans.Csv();
  }
  CheckOutputs(inputs, &report);
  return report;
}

}  // namespace perfbench
