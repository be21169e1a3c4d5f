// Spreading functions (Section 1, [15]).
//
// "For restricted classes of bounded degree networks (those with polynomial
// spreading function, i.e. networks where the size of the t-neighborhood of
// each node is bounded by a polynomial in t), constant slowdown simulations
// even only need O(n polylog n) size universal networks."
//
// The spreading function S(t) = max_v |ball(v, t)| separates mesh-like
// guests (S(t) = Theta(t^2)) from expander-like guests (S(t) = 2^{Theta(t)}),
// which is exactly why G_0 plants an expander: it defeats the polynomial-
// spreading escape hatch.  This module measures S(t) and fits its growth.
#pragma once

#include <cstdint>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/util/rng.hpp"

namespace upn {

struct SpreadingProfile {
  std::vector<std::uint32_t> max_ball;  ///< S(t) for t = 0..max_t (sampled max)
  double poly_exponent = 0.0;           ///< log-log slope of S(t) over the mid-range
  double exp_rate = 0.0;                ///< log2 S(t) growth per step, mid-range
};

/// Number of (P', t') with a path from (P, t) in the dependency graph of the
/// guest (Definition 3.7), per time offset: result[i] = |ball(P, i)|.
[[nodiscard]] std::vector<std::uint32_t> spreading_profile(const Graph& guest, NodeId center,
                                                           std::uint32_t max_steps);

/// Samples `samples` start vertices and returns the pointwise-max ball sizes
/// up to radius max_t, with growth fits.
[[nodiscard]] SpreadingProfile measure_spreading(const Graph& graph, std::uint32_t max_t,
                                                 std::uint32_t samples, Rng& rng);

/// True iff the measured spreading looks polynomial: S(t) <= bound_coeff *
/// t^bound_exp over the measured range (ignoring the saturated tail where
/// S(t) = n).
[[nodiscard]] bool has_polynomial_spreading(const SpreadingProfile& profile,
                                            double bound_coeff, double bound_exp);

}  // namespace upn
