// Cross-site merging of flow ESTIMATES with heterogeneous bases.
//
// Counter-level merging (core::DiscoParams::merge) requires both counters to
// share one DiscoParams deployment.  A collector aggregating epoch reports
// from many monitor processes does not have that luxury: sites run different
// counter widths, and RescaleB drifts their effective bases apart.  What
// every site exports is an UNBIASED per-flow estimate plus its effective
// base b, which bounds its variance -- so the collector merges at the
// estimate level:
//
//   X = sum_i X_i,   E[X] = sum_i n_i = n   (unbiasedness survives the sum)
//
// and, because distinct sites consume independent randomness,
//
//   Var(X) = sum_i Var(X_i)  <=  sum_i e_i^2 * est_i^2
//                                (Theorem 2, e_i = cv_bound(b_i))
//
// MixedEstimateAccumulator tracks exactly (sum, variance bound) and yields
// the normal-approximation interval for the merged estimate.  This is the
// heterogeneous generalisation of modules/confidence.hpp's
// EstimateAccumulator, which assumes one uniform base for every member --
// that homogeneous formula is preserved here verbatim (aggregate_interval)
// so the modules layer can delegate without changing a single bit of its
// output.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/theory.hpp"

namespace disco::core {

/// A two-sided interval around a merged estimate.  `valid` is false when a
/// contribution carried no usable error metadata (e.g. an in-process report
/// whose base was never set): the estimate itself is still the unbiased
/// sum, but no variance bound exists for it.
struct MergedInterval {
  double estimate = 0.0;
  double low = 0.0;   ///< clamped at 0: traffic cannot be negative
  double high = 0.0;
  bool valid = true;
};

/// Streaming accumulator for a sum of independent unbiased estimates, each
/// with its own effective base.  Copyable POD-style state: a collector
/// keeps one per (flow key, metric).
class MixedEstimateAccumulator {
 public:
  /// A DISCO contribution measured at effective base `b`.  b == 1 is exact
  /// counting (zero variance).  A base below 1 or NaN means the report
  /// carried no error metadata: the sum stays unbiased, the interval is
  /// invalidated.
  void add_multiplicative(double estimate, double b) {
    sum_ += estimate;
    if (b > 1.0) {
      const double e = theory::cv_bound(b);
      variance_ += e * e * estimate * estimate;
    } else if (!(b >= 1.0)) {
      valid_ = false;  // unknown base: sum stays unbiased, bound is gone
    }
  }

  void merge(const MixedEstimateAccumulator& other) {
    sum_ += other.sum_;
    variance_ += other.variance_;
    valid_ = valid_ && other.valid_;
  }

  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Upper bound on Var(sum); meaningless when !interval_valid().
  [[nodiscard]] double variance_bound() const noexcept { return variance_; }
  [[nodiscard]] bool interval_valid() const noexcept { return valid_; }

  /// Normal-approximation interval for the merged sum at the given
  /// two-sided confidence level.  Degenerates to [sum, sum] when the
  /// variance bound is zero (all contributions exact) and to an invalid
  /// interval when any contribution lacked error metadata.
  [[nodiscard]] MergedInterval interval(double confidence) const {
    MergedInterval out;
    out.estimate = sum_;
    out.valid = valid_;
    if (!valid_ || confidence <= 0.0 || confidence >= 1.0 ||
        variance_ <= 0.0) {
      out.low = out.high = sum_;
      return out;
    }
    const double z = theory::normal_quantile(0.5 + confidence / 2.0);
    const double half = z * std::sqrt(variance_);
    out.low = std::max(0.0, sum_ - half);
    out.high = sum_ + half;
    return out;
  }

 private:
  double sum_ = 0.0;
  double variance_ = 0.0;
  bool valid_ = true;
};

/// The homogeneous special case: every member estimate shares one base `b`,
/// and the caller tracked (sum, sum of squares).  This is the EXACT formula
/// modules/confidence.hpp has always used -- half = z * e * sqrt(sum sq) --
/// kept as one canonical implementation so the modules layer and any other
/// uniform-base consumer produce bit-identical intervals to the pre-collect
/// releases (the statistical regression suites pin its coverage).
[[nodiscard]] inline MergedInterval aggregate_interval(double sum,
                                                       double sum_squares,
                                                       double b,
                                                       double confidence) {
  MergedInterval out;
  out.estimate = sum;
  if (b <= 1.0 || confidence <= 0.0 || confidence >= 1.0) {
    out.low = out.high = sum;  // degenerate: b == 1 counts exactly
    return out;
  }
  const double e = theory::cv_bound(b);
  const double z = theory::normal_quantile(0.5 + confidence / 2.0);
  const double half = z * e * std::sqrt(sum_squares);
  out.low = std::max(0.0, sum - half);
  out.high = sum + half;
  return out;
}

}  // namespace disco::core
