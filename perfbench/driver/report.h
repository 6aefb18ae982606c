#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file
/// What one benchmark run reports, plus the order statistics every driver
/// reduces its samples with.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Output checks passed (fingerprints nonzero and equal to references,
  /// and the perturbation self-test detected its perturbation).
  bool correct = true;
  /// Operations attempted and failed: offered steps, session opens and
  /// output checks; failures are shed steps, refused sessions and failed
  /// checks.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Context printed to stderr and kept in the result file only.
  std::vector<Metric> notes;
  /// Traced runs: the span table, one CSV row per span record.
  std::string spans_csv;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `total` output checks of which `bad` failed.
  void Check(std::int64_t total, std::int64_t bad) {
    attempted += total;
    failed += bad;
    if (bad > 0) correct = false;
  }
};

/// Median of `values` (0 when empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile of `values` (0 when empty).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

/// Length of the windows the open-loop phase is cut into. The closed-loop
/// phases use one window per round, and batch-star5 one per pass.
inline constexpr std::int64_t kWindowNs = 10'000'000;

/// The windows a run reports from, given the CPU time the hypervisor
/// stole from this host during each (host_facts.h). The kernel accounts
/// steal at its ticks, possibly in the window after the stall, and a
/// stall's backlog drains into the next window; so each window is charged
/// its own steal plus both neighbours'. The windows charged no more than
/// the least-charged quarter are kept. On a shared host a few percent of
/// stolen CPU time stalls the workers of a round and multiplies latency;
/// the kept windows measure the system. When nothing is stolen, as on an
/// unshared host, every window is kept. A run then reports the median
/// figure over the kept windows. A window without a figure passes
/// +infinity as its steal.
inline std::vector<std::size_t> LeastStolen(const std::vector<double>& steal) {
  std::vector<double> charged(steal.size());
  for (std::size_t i = 0; i < steal.size(); ++i) {
    charged[i] = steal[i] + (i > 0 ? steal[i - 1] : 0.0) +
                 (i + 1 < steal.size() ? steal[i + 1] : 0.0);
  }
  const double threshold = Quantile(charged, 0.25);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < charged.size(); ++i) {
    if (charged[i] <= threshold) keep.push_back(i);
  }
  return keep;
}

/// Median of `per_window` over the windows `keep` selects.
inline double MedianOver(const std::vector<double>& per_window,
                         const std::vector<std::size_t>& keep) {
  std::vector<double> kept;
  for (std::size_t i : keep) kept.push_back(per_window[i]);
  return Median(std::move(kept));
}

/// Means of consecutive groups of `round` samples (a trailing partial
/// group is dropped): one figure per round of a CpuRotation.
inline std::vector<double> RoundMeans(const std::vector<double>& samples,
                                      std::size_t round) {
  std::vector<double> means;
  for (std::size_t first = 0; first + round <= samples.size();
       first += round) {
    double sum = 0.0;
    for (std::size_t k = first; k < first + round; ++k) sum += samples[k];
    means.push_back(sum / static_cast<double>(round));
  }
  return means;
}

/// A latency shared by `weight` steps.
struct WeightedSample {
  std::int64_t value = 0;
  std::int64_t weight = 0;
};

/// Step-weighted nearest-rank quantile (0 when empty).
inline double WeightedQuantile(std::vector<WeightedSample> samples,
                               double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const WeightedSample& a, const WeightedSample& b) {
              return a.value < b.value;
            });
  std::int64_t total = 0;
  for (const WeightedSample& s : samples) total += s.weight;
  const double target = q * static_cast<double>(total);
  std::int64_t seen = 0;
  for (const WeightedSample& s : samples) {
    seen += s.weight;
    if (static_cast<double>(seen) > target) return static_cast<double>(s.value);
  }
  return static_cast<double>(samples.back().value);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
