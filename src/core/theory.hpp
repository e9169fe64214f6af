// Closed-form results from the paper's Section IV analysis.
//
//   * Theorem 2: coefficient of variation of T(S) -- the traffic needed to
//     drive a counter to value S -- under uniform per-trial increments theta;
//   * Corollary 1: the b-only bound sqrt((b-1)/(b+1));
//   * Theorem 3: E[c(n)] <= f^-1(n).
//
// These feed Figs. 2-4 and the property tests that pin the Monte-Carlo
// behaviour of the implementation to the analysis.
#pragma once

#include <cstdint>

namespace disco::core::theory {

/// Corollary 1: sup over S of the coefficient of variation, for any theta.
[[nodiscard]] double cv_bound(double b);

/// Theorem 2: coefficient of variation e[T(S)] for counter value S >= 1 and
/// uniform increment size theta >= 1 (theta = 1 covers flow size counting;
/// theta > 1 models fixed-length packets in flow volume counting).
[[nodiscard]] double coefficient_of_variation(double b, std::uint64_t S,
                                              std::uint64_t theta);

/// E[T(S)]: expected traffic needed to reach counter value S under uniform
/// increments theta (eq. 15 / eq. 18) -- the x-axis of the paper's Fig. 2.
[[nodiscard]] double expected_traffic(double b, std::uint64_t S,
                                      std::uint64_t theta);

/// Theorem 3: upper bound f^-1(n) on the expected counter value after
/// counting total traffic n.
[[nodiscard]] double expected_counter_upper_bound(double b, double n);

/// Standard normal quantile (probit) via the Acklam rational approximation
/// (|error| < 1.15e-9 over (0, 1)).  This is the z in every Theorem 2
/// normal-approximation interval: DiscoParams::confidence_interval uses it
/// for single counters, and the modules layer for aggregates of estimates.
[[nodiscard]] double normal_quantile(double p);

}  // namespace disco::core::theory
