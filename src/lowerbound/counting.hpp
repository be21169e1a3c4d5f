// The counting framework of Section 3.2 in log2 domain.
//
// The proof of Theorem 3.1 is a pure counting argument:
//   |U[G_0]|  >= n^{(c-12)n/2} 2^{-delta n}                  ([13])
//   Y         <= |A| (q k)^n,  |A| <= 2^{r n k}               (Prop 3.6a, L3.13)
//   X         <= n^{(c-12)n/2} / m^{gamma (c-12) n / 4}       (Prop 3.6b)
//   |G(k)|    <= X * Y                                        (Lemma 3.5)
// and universality forces |G(k)| >= |U[G_0]|, which pins k = Omega(log m).
// Every quantity here is a log2 evaluator so the chain can be instantiated
// at concrete (n, m, c, k) and the minimal feasible k extracted numerically.
#pragma once

#include <cstdint>

namespace upn {

/// The constants the paper fixes in Section 3 (c = 16, G_0 degree 12) and
/// the ones Lemma 3.13 derives (q = 384, r = 3472 + 384 log2 d).
struct CountingConstants {
  std::uint32_t c = 16;        ///< guest degree (class U')
  std::uint32_t g0_degree = 12;
  std::uint32_t host_degree = 4;  ///< d: degree of the universal network M
  double q = 384.0;            ///< Lemma 3.13 (2)
  double delta = 2.0;          ///< |U[G_0]| >= n^{...} 2^{-delta n} ([13])
  double gamma = 0.05;         ///< Main Lemma (3): gamma = alpha (1 - 1/beta) / 2

  /// r from Lemma 3.13 (3): 3472 + 384 log2(host_degree).
  [[nodiscard]] double r() const noexcept;
};

/// log2 of the [13] lower bound on |U[G_0]|: n^{(c-12)n/2} 2^{-delta n}.
[[nodiscard]] double log2_guest_count_lower(double n, const CountingConstants& k);

/// log2 upper bound on |A| (Lemma 3.13 (3)): r n k.
[[nodiscard]] double log2_a_count(double n, double k, const CountingConstants& constants);

/// log2 upper bound on Y (Prop 3.6a): log2|A| + n log2(q k).
[[nodiscard]] double log2_fragment_count(double n, double k,
                                         const CountingConstants& constants);

/// log2 upper bound on X (Prop 3.6b):
/// (c-12)/2 * n * log2 n - gamma (c-12)/4 * n * log2 m.
[[nodiscard]] double log2_multiplicity(double n, double m, const CountingConstants& constants);

/// log2 upper bound on |G(k)| (Lemma 3.5): X * Y.
[[nodiscard]] double log2_simulable_count(double n, double m, double k,
                                          const CountingConstants& constants);

/// True iff inefficiency k is ruled out: |G(k)| < |U[G_0]|, i.e. some guest
/// has no k-inefficient simulation.
[[nodiscard]] bool inefficiency_infeasible(double n, double m, double k,
                                           const CountingConstants& constants);

/// The smallest k (within tolerance) NOT ruled out by the counting chain:
/// the Theorem 3.1 lower bound on the inefficiency at (n, m).
[[nodiscard]] double min_feasible_inefficiency(double n, double m,
                                               const CountingConstants& constants);

/// The closed-form asymptotic from the proof's last line:
/// k >= gamma (c-12) / (4 r') * log2 m with r' = r + (log2(q k) + delta)/k,
/// solved by fixed-point iteration.
[[nodiscard]] double closed_form_inefficiency(double m, const CountingConstants& constants);

}  // namespace upn
