#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "timed_policy.h"

/// \file
/// The traced run's span table. Spans are recorded by the benchmark's own
/// code around its calls into the library and kept in memory; the table is
/// written when the run ends. To keep it small, spans are coalesced per
/// scheduler round (or per façade job): one row holds the round's own span
/// plus the summed durations of the leaf spans attributed to it —
///   wait     driver idle until the next offer was due (nominal phase)
///   gen      driver copying an offer's arrivals out of the realization
///   offer    SessionScheduler::Offer
///   slice    StreamEngine::Advance slices, from slice_latencies() (serve)
///            or the whole façade Run (batch); worker time
///   select   EnginePolicy::SelectRetained through TimedPolicy; worker
///            time, nested inside the slices
///   account  driver bookkeeping after the round (latency and counters)
/// Offers made before a round are attributed to that round. A phase row
/// spans the whole phase. tools/trace_report.py turns the table into layer
/// self times.

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Advance slices summed over one round.
struct SliceSum {
  std::int64_t ns = 0;
  std::int64_t steps = 0;
  std::int64_t slices = 0;
};

struct SpanRow {
  bool is_phase = false;
  int phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int workers = 1;
  std::int64_t steps = 0;
  std::int64_t offers = 0;
  std::int64_t offer_steps = 0;
  std::int64_t offer_ns = 0;
  std::int64_t gen_ns = 0;
  std::int64_t wait_ns = 0;
  std::int64_t account_ns = 0;
  std::int64_t slices = 0;
  std::int64_t slice_ns = 0;
  std::int64_t selects = 0;
  std::int64_t select_ns = 0;
  std::int64_t candidates = 0;
};

class SpanTable {
 public:
  void BeginPhase(const char* name, std::int64_t start, int workers) {
    if (origin_ < 0) origin_ = start;
    phase_names_.push_back(name);
    SpanRow row;
    row.is_phase = true;
    row.phase = static_cast<int>(phase_names_.size()) - 1;
    row.start_ns = start;
    row.workers = workers;
    phase_row_ = rows_.size();
    rows_.push_back(row);
    pending_ = SpanRow{};
  }

  /// Leaf-span accumulators for the next round.
  SpanRow& pending() { return pending_; }

  void EndRound(std::int64_t start, std::int64_t end, std::int64_t steps,
                const SliceSum& slices, const TimedPolicy::Stats& selects,
                std::int64_t account_end) {
    SpanRow row = pending_;
    row.phase = rows_[phase_row_].phase;
    row.workers = rows_[phase_row_].workers;
    row.start_ns = start;
    row.end_ns = end;
    row.steps = steps;
    row.slices = slices.slices;
    row.slice_ns = slices.ns;
    row.selects = selects.calls;
    row.select_ns = selects.ns;
    row.candidates = selects.candidates;
    row.account_ns += account_end - end;
    rows_.push_back(row);
    pending_ = SpanRow{};
  }

  /// Closes the phase; leaf spans after the last round become a row with
  /// an empty round span.
  void EndPhase(std::int64_t end) {
    if (pending_.offers > 0 || pending_.wait_ns > 0 || pending_.gen_ns > 0) {
      EndRound(end, end, 0, SliceSum{}, TimedPolicy::Stats{}, end);
    }
    rows_[phase_row_].end_ns = end;
  }

  std::string Csv() const {
    std::string out =
        "kind,phase,start_ns,end_ns,workers,steps,offers,offer_steps,"
        "offer_ns,gen_ns,wait_ns,account_ns,slices,slice_ns,selects,"
        "select_ns,candidates\n";
    char line[512];
    for (const SpanRow& row : rows_) {
      std::snprintf(
          line, sizeof(line),
          "%s,%s,%lld,%lld,%d,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
          "%lld,%lld,%lld\n",
          row.is_phase ? "phase" : "round",
          phase_names_[static_cast<std::size_t>(row.phase)].c_str(),
          static_cast<long long>(row.start_ns - origin_),
          static_cast<long long>(row.end_ns - origin_), row.workers,
          static_cast<long long>(row.steps),
          static_cast<long long>(row.offers),
          static_cast<long long>(row.offer_steps),
          static_cast<long long>(row.offer_ns),
          static_cast<long long>(row.gen_ns),
          static_cast<long long>(row.wait_ns),
          static_cast<long long>(row.account_ns),
          static_cast<long long>(row.slices),
          static_cast<long long>(row.slice_ns),
          static_cast<long long>(row.selects),
          static_cast<long long>(row.select_ns),
          static_cast<long long>(row.candidates));
      out += line;
    }
    return out;
  }

 private:
  std::int64_t origin_ = -1;
  std::vector<std::string> phase_names_;
  std::vector<SpanRow> rows_;
  std::size_t phase_row_ = 0;
  SpanRow pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
