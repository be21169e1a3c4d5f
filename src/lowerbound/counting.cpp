#include "src/lowerbound/counting.hpp"

#include <cmath>

#include "src/util/contracts.hpp"

namespace upn {

double CountingConstants::r() const noexcept {
  return 3472.0 + 384.0 * std::log2(static_cast<double>(host_degree));
}

double log2_guest_count_lower(double n, const CountingConstants& k) {
  UPN_REQUIRE(n >= 2.0);
  const double exponent = (static_cast<double>(k.c) - k.g0_degree) / 2.0;
  return exponent * n * std::log2(n) - k.delta * n;
}

double log2_a_count(double n, double k, const CountingConstants& constants) {
  return constants.r() * n * k;
}

double log2_fragment_count(double n, double k, const CountingConstants& constants) {
  return log2_a_count(n, k, constants) + n * std::log2(constants.q * k);
}

double log2_multiplicity(double n, double m, const CountingConstants& constants) {
  UPN_REQUIRE(n >= 2.0 && m >= 2.0);
  const double half_residual = (static_cast<double>(constants.c) - constants.g0_degree) / 2.0;
  return half_residual * n * std::log2(n) -
         0.5 * constants.gamma * half_residual * n * std::log2(m);
}

double log2_simulable_count(double n, double m, double k,
                            const CountingConstants& constants) {
  return log2_multiplicity(n, m, constants) + log2_fragment_count(n, k, constants);
}

bool inefficiency_infeasible(double n, double m, double k,
                             const CountingConstants& constants) {
  return log2_simulable_count(n, m, k, constants) < log2_guest_count_lower(n, constants);
}

double min_feasible_inefficiency(double n, double m, const CountingConstants& constants) {
  UPN_REQUIRE(n >= 2.0 && m >= 2.0);
  // |G(k)| is increasing in k, so binary search for the crossover.
  double lo = 1e-9, hi = 1.0;
  while (inefficiency_infeasible(n, m, hi, constants)) hi *= 2.0;
  if (!inefficiency_infeasible(n, m, lo, constants)) return lo;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (inefficiency_infeasible(n, m, mid, constants)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  UPN_ENSURE(hi > 0.0);
  return hi;
}

double closed_form_inefficiency(double m, const CountingConstants& constants) {
  // The n-dependent terms of |G(k)| >= |U[G_0]| cancel, leaving the
  // n-independent threshold equation (the proof's final inequality):
  //     r k + log2(q k) + delta = gamma (c-12)/4 * log2 m.
  // The left side is strictly increasing in k; solve by bisection.
  const double half_residual = (static_cast<double>(constants.c) - constants.g0_degree) / 2.0;
  const double target =
      0.5 * constants.gamma * half_residual * std::log2(m) - constants.delta;
  const auto lhs = [&](double k) { return constants.r() * k + std::log2(constants.q * k); };
  double lo = 1e-12, hi = 1.0;
  while (lhs(lo) > target) lo /= 2.0;
  while (lhs(hi) < target) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (lhs(mid) < target ? lo : hi) = mid;
  }
  UPN_ENSURE(hi > 0.0);
  return hi;
}

}  // namespace upn
