#ifndef SJOIN_STOCHASTIC_DISCRETE_DISTRIBUTION_H_
#define SJOIN_STOCHASTIC_DISCRETE_DISTRIBUTION_H_

#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/types.h"

/// \file
/// Probability mass functions over integer join-attribute values.
///
/// The paper models every stream as a discrete-time process whose
/// join-attribute values are discrete random variables (Section 2).
/// DiscreteDistribution is the concrete pmf representation used throughout:
/// prediction (Pr{X_t = v | history}), ECB computation (Lemma 1), expected
/// costs in the FlowExpect graph, and stream sampling all consume it.

namespace sjoin {

/// An immutable-after-construction pmf over a contiguous integer support
/// [min_value, min_value + size - 1]. Entries may be zero inside the range;
/// values outside the range have probability exactly zero.
class DiscreteDistribution {
 public:
  /// An empty distribution (no support, all probabilities zero). Useful as
  /// a sentinel for "stream produces a non-joining tuple".
  DiscreteDistribution() = default;

  /// Builds a pmf with the given support start and masses. Masses must be
  /// non-negative; they are normalized to sum to one unless all are zero.
  static DiscreteDistribution FromMasses(Value min_value,
                                         std::vector<double> masses);

  /// All mass on a single value.
  static DiscreteDistribution PointMass(Value v);

  /// Uniform over the inclusive integer range [lo, hi].
  static DiscreteDistribution BoundedUniform(Value lo, Value hi);

  /// Zipf(s) over the inclusive range [lo, hi]: the mass of lo + i is
  /// proportional to (i + 1)^-s. s = 0 degenerates to BoundedUniform;
  /// larger exponents concentrate mass on the first few values — a
  /// skewed value-popularity model.
  static DiscreteDistribution Zipf(Value lo, Value hi, double exponent);

  /// Normal(mean, sigma^2) discretized to the integer grid (mass of v is
  /// P(v - 0.5 < X <= v + 0.5)), truncated where the mass drops below
  /// `tail_eps`, and renormalized.
  static DiscreteDistribution DiscretizedNormal(double mean, double sigma,
                                                double tail_eps = 1e-10);

  /// Normal(mean, sigma^2) discretized to integers and truncated to the
  /// inclusive range [lo, hi], then renormalized. This is the paper's
  /// "bounded normal noise" (Section 5.4 / Figure 7).
  static DiscreteDistribution TruncatedDiscretizedNormal(double mean,
                                                         double sigma,
                                                         Value lo, Value hi);

  /// Probability of value v (zero outside the support range).
  double Prob(Value v) const;

  /// True if the distribution has no support at all.
  bool IsEmpty() const { return masses_.empty(); }

  /// Lowest / highest value of the stored support range. Must not be empty.
  Value MinValue() const;
  Value MaxValue() const;

  /// Number of stored support slots (MaxValue - MinValue + 1).
  std::size_t SupportSize() const { return masses_.size(); }

  /// Expectation and variance of the distribution. Empty => 0.
  double Mean() const;
  double Variance() const;

  /// Total stored mass; 1 after normalization (0 for the empty pmf).
  double TotalMass() const;

  /// Distribution of X + delta.
  DiscreteDistribution ShiftedBy(Value delta) const;

  /// Makes *this the distribution of X_src + delta, reusing the existing
  /// masses buffer (no allocation once its capacity suffices). This is the
  /// mutation path behind StochasticProcess::PredictInto, which HEEB's
  /// per-step prediction rebuild runs through.
  void AssignShiftedCopy(const DiscreteDistribution& src, Value delta) {
    if (&src == this) {
      min_value_ += delta;
      return;
    }
    min_value_ = src.min_value_ + delta;
    masses_.assign(src.masses_.begin(), src.masses_.end());
  }

  /// Distribution of X + Y for independent X (this) and Y (other).
  DiscreteDistribution Convolve(const DiscreteDistribution& other) const;

  /// Sum over v of Prob(v) * other.Prob(v); the probability that two
  /// independent draws coincide. Used for FlowExpect's undetermined-node
  /// arcs (Section 3.1).
  double OverlapProb(const DiscreteDistribution& other) const;

  /// Draws a value according to the pmf. Must not be empty.
  Value Sample(Rng& rng) const;

  /// Access to raw masses (for plotting pdfs, e.g. Figure 7).
  const std::vector<double>& masses() const { return masses_; }

 private:
  DiscreteDistribution(Value min_value, std::vector<double> masses)
      : min_value_(min_value), masses_(std::move(masses)) {}

  void Normalize();

  Value min_value_ = 0;
  std::vector<double> masses_;
};

}  // namespace sjoin

#endif  // SJOIN_STOCHASTIC_DISCRETE_DISTRIBUTION_H_
