#include "core/theory.hpp"

#include <cmath>
#include <stdexcept>

#include "util/math.hpp"

namespace disco::core::theory {
namespace {

double pow_b(double b, double e) { return std::exp(e * std::log(b)); }

}  // namespace

double cv_bound(double b) {
  if (!(b > 1.0)) throw std::invalid_argument("cv_bound: b must be > 1");
  return std::sqrt((b - 1.0) / (b + 1.0));
}

double expected_traffic(double b, std::uint64_t S, std::uint64_t theta) {
  if (!(b > 1.0)) throw std::invalid_argument("expected_traffic: b must be > 1");
  if (theta == 0) throw std::invalid_argument("expected_traffic: theta >= 1");
  const util::GeometricScale scale(b);
  const auto s = static_cast<double>(S);
  if (theta == 1) {
    return scale.f(s);  // eq. 15
  }
  // Counter jumps to x after the first theta-sized trial, f(x) <= theta <=
  // f(x+1); from there on each increment is geometric (eq. 18).
  const double x = std::floor(scale.f_inv(static_cast<double>(theta)));
  if (x >= s) return static_cast<double>(theta);
  const double th = static_cast<double>(theta);
  return th + pow_b(b, x) * (pow_b(b, s - x) - 1.0) / (b - 1.0);
}

double coefficient_of_variation(double b, std::uint64_t S, std::uint64_t theta) {
  if (!(b > 1.0)) {
    throw std::invalid_argument("coefficient_of_variation: b must be > 1");
  }
  if (theta == 0) {
    throw std::invalid_argument("coefficient_of_variation: theta >= 1");
  }
  if (S == 0) return 0.0;
  const auto s = static_cast<double>(S);

  // For large S the expression is (inf/inf)-shaped in doubles but converges
  // to the Corollary 1 bound; short-circuit before b^(2S) overflows.
  if (2.0 * s * std::log(b) > 600.0) return cv_bound(b);

  if (theta == 1) {
    // eq. 17: e = sqrt( (b-1)(b^S - b) / ((b+1)(b^S - 1)) ).
    const double num = (b - 1.0) * (pow_b(b, s) - b);
    const double den = (b + 1.0) * (pow_b(b, s) - 1.0);
    return num <= 0.0 ? 0.0 : std::sqrt(num / den);
  }

  // eq. 20 with x s.t. f(x) <= theta <= f(x+1).
  const util::GeometricScale scale(b);
  const double th = static_cast<double>(theta);
  const double x = std::floor(scale.f_inv(th));
  if (x >= s) return 0.0;  // a single trial already reaches S: deterministic
  const double bx = pow_b(b, x);
  const double bsx = pow_b(b, s - x);
  const double num =
      (b - 1.0) * (bx * bx * (bsx * bsx - 1.0) - th * bx * (bsx - 1.0) * (b + 1.0));
  const double den_base = bx * (bsx - 1.0) + (b - 1.0) * th;
  const double den = (b + 1.0) * den_base * den_base;
  // The paper's geometric-trial model assumes p_c = theta/b^c <= 1; in the
  // early region where theta exceeds b^c the counter advances several values
  // deterministically and the closed form can dip (slightly) negative.
  // Clamp at zero: the true variation there is negligible (see the
  // Monte-Carlo column of bench_fig2).
  return num <= 0.0 ? 0.0 : std::sqrt(num / den);
}

double expected_counter_upper_bound(double b, double n) {
  const util::GeometricScale scale(b);
  return scale.f_inv(n);
}

double normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0, 1)");
  }
  // Acklam's rational approximation, tail / central / tail.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b_[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
           q /
           (((((b_[0] * r + b_[1]) * r + b_[2]) * r + b_[3]) * r + b_[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace disco::core::theory
