#include "src/lowerbound/spreading.hpp"

#include <algorithm>
#include <cmath>

#include "src/topology/properties.hpp"
#include "src/util/contracts.hpp"

namespace upn {

std::vector<std::uint32_t> spreading_profile(const Graph& guest, NodeId center,
                                             std::uint32_t max_steps) {
  UPN_REQUIRE(center < guest.num_nodes(), "spreading_profile: center out of range");
  const auto dist = bfs_distances(guest, center);
  std::vector<std::uint32_t> profile(max_steps + 1, 0);
  for (NodeId v = 0; v < guest.num_nodes(); ++v) {
    if (dist[v] == kUnreachable) continue;
    for (std::uint32_t i = dist[v]; i <= max_steps; ++i) ++profile[i];
  }
  UPN_ENSURE(std::is_sorted(profile.begin(), profile.end()),
             "dependency balls are nested, so the spreading profile is monotone");
  UPN_ENSURE(profile[0] >= 1, "(P, t) depends at least on itself");
  return profile;
}

SpreadingProfile measure_spreading(const Graph& graph, std::uint32_t max_t,
                                   std::uint32_t samples, Rng& rng) {
  UPN_REQUIRE(max_t >= 1);
  SpreadingProfile profile;
  profile.max_ball.assign(max_t + 1, 0);
  const std::uint32_t n = graph.num_nodes();
  for (std::uint32_t s = 0; s < samples && n > 0; ++s) {
    const auto center = static_cast<NodeId>(rng.below(n));
    const auto balls = spreading_profile(graph, center, max_t);
    for (std::uint32_t t = 0; t <= max_t; ++t) {
      profile.max_ball[t] = std::max(profile.max_ball[t], balls[t]);
    }
  }
  // Fit growth over the unsaturated mid-range [t_lo, t_hi]: skip t < 2 and
  // everything at or past saturation (ball == n).
  std::uint32_t t_hi = max_t;
  while (t_hi > 2 && profile.max_ball[t_hi] >= n) --t_hi;
  // High-degree graphs saturate almost immediately; widen the window so the
  // fit still sees the initial growth.
  const std::uint32_t t_lo = (t_hi > 3) ? 2 : 1;
  if (t_hi <= t_lo && t_hi < max_t) ++t_hi;
  if (t_hi > t_lo) {
    // Least squares of log2 S(t) against log2 t (polynomial exponent) and
    // against t (exponential rate).
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    double tx = 0, txx = 0, txy = 0;
    std::uint32_t count = 0;
    for (std::uint32_t t = t_lo; t <= t_hi; ++t) {
      const double y = std::log2(static_cast<double>(profile.max_ball[t]));
      const double x = std::log2(static_cast<double>(t));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
      tx += t;
      txx += static_cast<double>(t) * t;
      txy += t * y;
      ++count;
    }
    const double c = count;
    const double denom_poly = c * sxx - sx * sx;
    const double denom_exp = c * txx - tx * tx;
    if (denom_poly > 0) profile.poly_exponent = (c * sxy - sx * sy) / denom_poly;
    if (denom_exp > 0) profile.exp_rate = (c * txy - tx * sy) / denom_exp;
  }
  UPN_ENSURE(profile.max_ball.size() == max_t + 1);
  return profile;
}

bool has_polynomial_spreading(const SpreadingProfile& profile, double bound_coeff,
                              double bound_exp) {
  UPN_REQUIRE(bound_coeff > 0.0 && bound_exp >= 0.0);
  const std::uint32_t n = profile.max_ball.empty() ? 0 : profile.max_ball.back();
  for (std::uint32_t t = 1; t < profile.max_ball.size(); ++t) {
    if (profile.max_ball[t] >= n && n > 0) break;  // saturated tail
    const double bound = bound_coeff * std::pow(static_cast<double>(t), bound_exp);
    if (static_cast<double>(profile.max_ball[t]) > bound) return false;
  }
  return true;
}

}  // namespace upn
