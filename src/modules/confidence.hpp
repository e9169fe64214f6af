// Confidence intervals for AGGREGATES of DISCO estimates.
//
// core::DiscoParams::interval_for_estimate covers one flow's estimate; a
// module usually reports a sum over many flows (all traffic to port 443,
// all bytes under 10.1.2.0/24, ...).  Per-flow estimates are unbiased with
// relative standard deviation at most e = cv_bound(b) (Theorem 2 /
// Corollary 1), and distinct flows consume independent randomness, so for a
// sum X = sum_i X_i:
//
//   Var(X) = sum_i Var(X_i) <= e^2 * sum_i est_i^2
//
// giving the half-width  z * e * sqrt(sum est_i^2)  at confidence level z.
// This is strictly tighter than the naive z * e * sum(est_i) whenever more
// than one flow contributes -- aggregation *helps* accuracy, which is why
// the paper's per-port error plots beat its per-flow ones.  The accumulator
// below tracks exactly the two moments the bound needs.
// Since the collector landed (src/collect, docs/collector.md) the canonical
// implementation of this bound lives in core/estimate_merge.hpp, which also
// generalises it to heterogeneous bases; interval() below delegates to
// core::aggregate_interval and is bit-identical to the historical in-place
// formula.
#pragma once

#include "core/estimate_merge.hpp"

namespace disco::modules {

/// A DISCO interval around an aggregate estimate.
struct AggregateInterval {
  double estimate = 0.0;
  double low = 0.0;   ///< clamped at 0: traffic cannot be negative
  double high = 0.0;
};

/// Streaming accumulator for a sum of independent per-flow DISCO estimates.
/// add() each member estimate; interval() yields the Theorem 2 normal-
/// approximation bound for the sum.  Copyable POD-style state, so modules
/// can keep one per reported key.
class EstimateAccumulator {
 public:
  void add(double estimate) {
    sum_ += estimate;
    sum_squares_ += estimate * estimate;
  }

  /// Merges another accumulator (e.g. the same key seen in a later epoch).
  void merge(const EstimateAccumulator& other) {
    sum_ += other.sum_;
    sum_squares_ += other.sum_squares_;
  }

  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double sum_squares() const noexcept { return sum_squares_; }

  /// Interval for the accumulated sum, at DISCO base `b` and the given
  /// two-sided confidence level.  `b` should be the max effective base over
  /// every epoch that contributed (EpochReport::volume_b / size_b), which
  /// keeps the bound conservative under RescaleB drift.
  [[nodiscard]] AggregateInterval interval(double b, double confidence) const {
    const core::MergedInterval merged =
        core::aggregate_interval(sum_, sum_squares_, b, confidence);
    return AggregateInterval{merged.estimate, merged.low, merged.high};
  }

 private:
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
};

}  // namespace disco::modules
