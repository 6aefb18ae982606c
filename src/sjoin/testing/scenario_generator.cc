#include "sjoin/testing/scenario_generator.h"

#include <cmath>
#include <sstream>

#include "sjoin/common/check.h"
#include "sjoin/stochastic/ar1_process.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/regime_switching_process.h"
#include "sjoin/stochastic/scripted_process.h"
#include "sjoin/stochastic/seasonal_process.h"
#include "sjoin/stochastic/stationary_process.h"

namespace sjoin {
namespace testing {
namespace {

/// Random pmf with strictly positive, generically distinct masses.
/// Uniform masses would create exact score ties whose resolution is
/// sensitive to last-bit float differences; distinct masses keep ties
/// measure-zero so differential comparisons stay meaningful.
DiscreteDistribution RandomPmf(Rng& rng, Value lo, int support) {
  std::vector<double> masses(static_cast<std::size_t>(support));
  for (double& mass : masses) mass = 0.05 + rng.UniformReal();
  return DiscreteDistribution::FromMasses(lo, std::move(masses));
}

/// Zero-mean bounded noise for trend-style processes.
DiscreteDistribution RandomNoise(Rng& rng) {
  double sigma = 0.7 + 1.3 * rng.UniformReal();
  Value bound = rng.UniformInt(2, 5);
  return DiscreteDistribution::TruncatedDiscretizedNormal(0.0, sigma, -bound,
                                                          bound);
}

std::unique_ptr<StochasticProcess> MakeTrend(Rng& rng, double slope,
                                             std::string* description) {
  double intercept = static_cast<double>(rng.UniformInt(-5, 5));
  std::ostringstream out;
  out << "trend(" << slope << ")";
  *description = out.str();
  return std::make_unique<LinearTrendProcess>(slope, intercept,
                                              RandomNoise(rng));
}

/// Zipf-shaped masses over [lo, lo + support) with a small multiplicative
/// jitter — same tie-avoidance rationale as RandomPmf, same skew profile
/// as DiscreteDistribution::Zipf.
DiscreteDistribution SkewedPmf(Rng& rng, Value lo, int support, double s) {
  std::vector<double> masses(static_cast<std::size_t>(support));
  for (std::size_t i = 0; i < masses.size(); ++i) {
    masses[i] = std::pow(static_cast<double>(i + 1), -s) *
                (0.9 + 0.2 * rng.UniformReal());
  }
  return DiscreteDistribution::FromMasses(lo, std::move(masses));
}

}  // namespace

std::unique_ptr<StochasticProcess> ScenarioGenerator::SampleProcess(
    Rng& rng, Time length, std::string* description) const {
  // kAny adds the history-dependent kinds on top of the independent pool.
  int num_kinds = options_.pool == Pool::kAny ? 6 : 4;
  switch (rng.UniformInt(0, num_kinds - 1)) {
    case 0: {
      Value lo = rng.UniformInt(-4, 4);
      int support = static_cast<int>(rng.UniformInt(3, 9));
      *description = "stationary";
      return std::make_unique<StationaryProcess>(RandomPmf(rng, lo, support));
    }
    case 1: {
      double slope = static_cast<double>(rng.UniformInt(-4, 4)) / 2.0;
      return MakeTrend(rng, slope, description);
    }
    case 2: {
      double mean = static_cast<double>(rng.UniformInt(-3, 3));
      double amplitude = 2.0 + 6.0 * rng.UniformReal();
      double period = 6.0 + 18.0 * rng.UniformReal();
      double phase = 6.28318530717958647692 * rng.UniformReal();
      *description = "seasonal";
      return std::make_unique<SeasonalProcess>(mean, amplitude, period, phase,
                                               RandomNoise(rng));
    }
    case 3: {
      // Script covers exactly the run; predictions beyond it are the empty
      // pmf (a tuple that joins nothing), which both sides must agree on.
      std::vector<DiscreteDistribution> script;
      script.reserve(static_cast<std::size_t>(length));
      Value base = rng.UniformInt(-3, 3);
      for (Time t = 0; t < length; ++t) {
        base += rng.UniformInt(-1, 1);
        script.push_back(RandomPmf(
            rng, base, static_cast<int>(rng.UniformInt(2, 4))));
      }
      *description = "scripted";
      return std::make_unique<ScriptedProcess>(std::move(script));
    }
    case 4: {
      double drift = 2.0 * rng.UniformReal() - 1.0;
      double sigma = 0.8 + 0.7 * rng.UniformReal();
      Value initial = rng.UniformInt(-5, 5);
      *description = "walk";
      return std::make_unique<RandomWalkProcess>(
          DiscreteDistribution::DiscretizedNormal(drift, sigma), initial);
    }
    default: {
      double phi0 = 2.0 * rng.UniformReal() - 1.0;
      double phi1 = 0.3 + 0.6 * rng.UniformReal();
      double sigma = 0.8 + 0.7 * rng.UniformReal();
      Value initial = static_cast<Value>(std::lround(phi0 / (1.0 - phi1)));
      *description = "ar1";
      return std::make_unique<Ar1Process>(phi0, phi1, sigma, initial);
    }
  }
}

std::unique_ptr<StochasticProcess> ScenarioGenerator::SampleSkewedProcess(
    Rng& rng, std::string* description) const {
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      // Stationary Zipf popularity: a hot head of a few values.
      double s = 0.7 + 0.7 * rng.UniformReal();
      Value lo = rng.UniformInt(-4, 4);
      int support = static_cast<int>(rng.UniformInt(12, 32));
      std::ostringstream out;
      out << "zipf(" << s << ")";
      *description = out.str();
      return std::make_unique<StationaryProcess>(
          SkewedPmf(rng, lo, support, s));
    }
    case 1: {
      // Bursty arrivals: short hot phases of a few values alternating with
      // calm, near-uniform wide phases.
      Value lo = rng.UniformInt(-4, 2);
      std::vector<RegimeSwitchingProcess::Phase> phases;
      phases.push_back(
          {SkewedPmf(rng, lo + rng.UniformInt(0, 6),
                     static_cast<int>(rng.UniformInt(3, 5)),
                     1.2 + 0.4 * rng.UniformReal()),
           rng.UniformInt(3, 8)});
      phases.push_back(
          {SkewedPmf(rng, lo, static_cast<int>(rng.UniformInt(12, 24)),
                     0.1 + 0.3 * rng.UniformReal()),
           rng.UniformInt(3, 8)});
      *description = "bursty";
      return std::make_unique<RegimeSwitchingProcess>(std::move(phases));
    }
    default: {
      // Regime switch: the Zipf hot window jumps to a different value
      // range each phase, so yesterday's balanced partition is today's
      // skewed one.
      int num_phases = static_cast<int>(rng.UniformInt(2, 4));
      Value lo = rng.UniformInt(-6, 0);
      std::vector<RegimeSwitchingProcess::Phase> phases;
      phases.reserve(static_cast<std::size_t>(num_phases));
      for (int p = 0; p < num_phases; ++p) {
        phases.push_back(
            {SkewedPmf(rng, lo + rng.UniformInt(0, 12),
                       static_cast<int>(rng.UniformInt(6, 14)),
                       0.9 + 0.6 * rng.UniformReal()),
             rng.UniformInt(6, 16)});
      }
      *description = "regime";
      return std::make_unique<RegimeSwitchingProcess>(std::move(phases));
    }
  }
}

Scenario ScenarioGenerator::Sample(std::uint64_t seed) const {
  Rng rng(seed);
  Scenario scenario;
  scenario.seed = seed;
  scenario.length = rng.UniformInt(options_.min_length, options_.max_length);
  scenario.capacity = static_cast<std::size_t>(
      rng.UniformInt(static_cast<std::int64_t>(options_.min_capacity),
                     static_cast<std::int64_t>(options_.max_capacity)));
  scenario.warmup = rng.UniformInt(0, scenario.length / 4);
  if (rng.UniformReal() < options_.window_probability) {
    scenario.window =
        rng.UniformInt(2, static_cast<Time>(3 * scenario.capacity) + 4);
  }
  scenario.alpha = 2.0 + 10.0 * rng.UniformReal();
  scenario.horizon = rng.UniformInt(4, options_.max_horizon);

  std::string r_kind;
  std::string s_kind;
  switch (options_.pool) {
    case Pool::kAny:
    case Pool::kIndependent:
      scenario.r_process = SampleProcess(rng, scenario.length, &r_kind);
      scenario.s_process = SampleProcess(rng, scenario.length, &s_kind);
      break;
    case Pool::kEqualSlopeTrends: {
      std::int64_t slope = rng.UniformInt(1, 2);
      if (rng.UniformReal() < 0.5) slope = -slope;
      scenario.r_process =
          MakeTrend(rng, static_cast<double>(slope), &r_kind);
      scenario.s_process =
          MakeTrend(rng, static_cast<double>(slope), &s_kind);
      break;
    }
    case Pool::kSkewed:
      scenario.r_process = SampleSkewedProcess(rng, &r_kind);
      scenario.s_process = SampleSkewedProcess(rng, &s_kind);
      break;
    case Pool::kWalks: {
      for (std::string* kind : {&r_kind, &s_kind}) {
        double drift = 2.0 * rng.UniformReal() - 1.0;
        double sigma = 0.8 + 0.7 * rng.UniformReal();
        auto process = std::make_unique<RandomWalkProcess>(
            DiscreteDistribution::DiscretizedNormal(drift, sigma),
            rng.UniformInt(-5, 5));
        *kind = "walk";
        (kind == &r_kind ? scenario.r_process : scenario.s_process) =
            std::move(process);
      }
      break;
    }
  }
  std::ostringstream description;
  description << r_kind << "/" << s_kind << " len=" << scenario.length
              << " cap=" << scenario.capacity << " warmup=" << scenario.warmup
              << " alpha=" << scenario.alpha
              << " horizon=" << scenario.horizon;
  if (scenario.window.has_value()) {
    description << " window=" << *scenario.window;
  }
  scenario.description = description.str();
  return scenario;
}

std::vector<Value> SampleStream(const StochasticProcess& process, Time length,
                                Rng& rng) {
  StreamHistory history;
  std::vector<Value> values;
  values.reserve(static_cast<std::size_t>(length));
  for (Time t = 0; t < length; ++t) {
    Value v = process.SampleNext(history, rng);
    history.Append(v);
    values.push_back(v);
  }
  return values;
}

std::pair<std::vector<Value>, std::vector<Value>> SampleRealization(
    const Scenario& scenario, Rng& rng) {
  return {SampleStream(*scenario.r_process, scenario.length, rng),
          SampleStream(*scenario.s_process, scenario.length, rng)};
}

}  // namespace testing
}  // namespace sjoin
