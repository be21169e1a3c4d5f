#include "src/lowerbound/tradeoff.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/contracts.hpp"

namespace upn {

std::vector<TradeoffRow> lower_bound_sweep(double n, const std::vector<double>& ms,
                                           const CountingConstants& constants) {
  UPN_REQUIRE(n >= 2.0);
  std::vector<TradeoffRow> rows;
  rows.reserve(ms.size());
  for (const double m : ms) {
    TradeoffRow row;
    row.n = n;
    row.m = m;
    row.k_counting = min_feasible_inefficiency(n, m, constants);
    row.k_closed_form = closed_form_inefficiency(m, constants);
    row.slowdown_bound = std::max(1.0, row.k_counting * n / m);
    row.load_bound = std::max(1.0, n / m);
    row.ms_over_nlogm = (m * row.slowdown_bound) / (n * std::log2(m));
    rows.push_back(row);
  }
  UPN_ENSURE(rows.size() == ms.size());
  return rows;
}

TradeoffVerdict check_network(double n, double m, double s,
                              const CountingConstants& constants) {
  UPN_REQUIRE(n >= 2.0 && m >= 2.0 && s > 0.0);
  TradeoffVerdict verdict;
  const double k_min = min_feasible_inefficiency(n, m, constants);
  verdict.required_slowdown = std::max(1.0, k_min * n / m);
  verdict.ruled_out_paper_constants = s < verdict.required_slowdown;
  verdict.proposed_ms = m * s;
  verdict.bound_nlogm = n * std::log2(m);
  verdict.ruled_out_normalized = verdict.proposed_ms < verdict.bound_nlogm;
  UPN_ENSURE(verdict.required_slowdown >= 1.0);
  return verdict;
}

double upper_bound_slowdown(double n, double ell) {
  UPN_REQUIRE(n >= 2.0);
  const double s =
      ell <= 1.0 ? std::log2(n) : std::max(1.0, std::log2(n) / std::log2(ell));
  UPN_ENSURE(s >= 1.0);
  return s;
}

}  // namespace upn
