// The size/slowdown trade-off of Theorem 3.1, as concrete tables.
//
//   m * s = Omega(n log m)
//
// Interpretations (Section 1, "New Results"):
//   * m >= n: constant slowdown needs m = Omega(n log n);
//   * m <= n: slowdown s = Omega((n/m) log m), a log m factor above the
//     load-induced bound n/m -- so for small hosts, dynamic simulation
//     cannot beat the static butterfly embedding of Theorem 2.1.
// The upper-bound side ([14], quoted in Section 1): for every l >= 1 there
// is a universal network of size n*l with slowdown s, s * log l = O(log n).
#pragma once

#include <cstdint>
#include <vector>

#include "src/lowerbound/counting.hpp"

namespace upn {

struct TradeoffRow {
  double n = 0;
  double m = 0;
  double k_counting = 0;    ///< minimal feasible inefficiency (full chain)
  double k_closed_form = 0; ///< closed-form fixed point
  double slowdown_bound = 0;///< s >= k n / m
  double load_bound = 0;    ///< s >= n / m (trivial)
  double ms_over_nlogm = 0; ///< (m * slowdown_bound) / (n log2 m): ~const
};

/// Lower-bound table over hosts m for a fixed guest size n.
[[nodiscard]] std::vector<TradeoffRow> lower_bound_sweep(
    double n, const std::vector<double>& ms, const CountingConstants& constants = {});

/// Verdict on a proposed universal network (m, s) for guests of size n.
struct TradeoffVerdict {
  bool ruled_out_paper_constants = false;  ///< violates k >= k_counting
  bool ruled_out_normalized = false;       ///< violates m s >= n log2 m (constant 1)
  double required_slowdown = 0;            ///< minimal s allowed by the theorem
  double proposed_ms = 0;
  double bound_nlogm = 0;
};
[[nodiscard]] TradeoffVerdict check_network(double n, double m, double s,
                                            const CountingConstants& constants = {});

/// The [14] upper-bound trade-off: slowdown achievable with a host of size
/// n*l, i.e. s = O(log n / log l); returned with constant 1.
[[nodiscard]] double upper_bound_slowdown(double n, double ell);

}  // namespace upn
