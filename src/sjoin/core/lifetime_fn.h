#ifndef SJOIN_CORE_LIFETIME_FN_H_
#define SJOIN_CORE_LIFETIME_FN_H_

#include <memory>
#include <vector>

#include "sjoin/common/types.h"

/// \file
/// Lifetime estimators L_x(Δt) for HEEB (Section 4.3).
///
/// L_x(Δt) estimates the probability that a cached tuple x is still cached
/// Δt steps from now. A good choice satisfies the five properties of
/// Section 4.3 (values in [0,1], non-increasing, summable enough for H_x
/// to converge, dominance-monotone, non-trivial). The paper's instances:
///
///   L_fixed  = 1 for Δt <= ΔT, else 0   -> H = B(ΔT)
///   L_inf    = 1 (caching only)         -> H = lim B(Δt)
///   L_inv    = 1/Δt (caching only)      -> expected inverse waiting time
///   L_exp    = e^{-Δt/α}                -> the paper's choice; enables
///                                          incremental computation.

namespace sjoin {

/// Estimated probability of remaining cached Δt steps from now.
class LifetimeFn {
 public:
  virtual ~LifetimeFn() = default;

  /// L(Δt) for Δt >= 1.
  virtual double At(Time dt) const = 0;
};

/// L_fixed: all tuples assumed replaced exactly after ΔT steps.
class FixedLifetime final : public LifetimeFn {
 public:
  explicit FixedLifetime(Time delta_t) : delta_t_(delta_t) {}
  double At(Time dt) const override { return dt <= delta_t_ ? 1.0 : 0.0; }

 private:
  Time delta_t_;
};

/// L_inf: tuples never leave the cache (converges for caching problems,
/// where B is bounded by 1; not for joining in general).
class InfiniteLifetime final : public LifetimeFn {
 public:
  double At(Time dt) const override {
    (void)dt;
    return 1.0;
  }
};

/// L_inv: H becomes the expected inverse waiting time (caching only).
class InverseLifetime final : public LifetimeFn {
 public:
  double At(Time dt) const override {
    return 1.0 / static_cast<double>(dt);
  }
};

/// L_exp: exponentially decaying survival, the paper's default. α should
/// be chosen so that 1/(1 - e^{-1/α}) matches the expected average
/// lifetime of a cached tuple (Section 4.3).
class ExpLifetime final : public LifetimeFn {
 public:
  explicit ExpLifetime(double alpha);
  double At(Time dt) const override;

  double alpha() const { return alpha_; }

  /// The α whose L_exp predicts the given average cached lifetime:
  /// solves 1/(1 - e^{-1/α}) = lifetime.
  static double AlphaForAverageLifetime(double lifetime);

 private:
  double alpha_;
};

/// Sliding-window modification (Section 7): L drops to zero once the tuple
/// leaves the window, i.e. for Δt > remaining_life.
class WindowedLifetime final : public LifetimeFn {
 public:
  /// `base` is not owned and must outlive this object.
  WindowedLifetime(const LifetimeFn* base, Time remaining_life)
      : base_(base), remaining_life_(remaining_life) {}

  double At(Time dt) const override {
    return dt <= remaining_life_ ? base_->At(dt) : 0.0;
  }

 private:
  const LifetimeFn* base_;
  Time remaining_life_;
};

/// L(1..horizon) as a flat table, table[dt - 1] = lifetime.At(dt). The
/// truncated HEEB sums read it instead of one virtual At (and, for L_exp,
/// one std::exp) per term; the entries are the same doubles, so every sum
/// that reads the table is bit-identical to one that calls At.
std::vector<double> LifetimeTable(const LifetimeFn& lifetime, Time horizon);

}  // namespace sjoin

#endif  // SJOIN_CORE_LIFETIME_FN_H_
