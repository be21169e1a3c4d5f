// Counting chain (Section 3.2) and trade-off calculator tests.
#include <gtest/gtest.h>

#include <cmath>

#include "src/lowerbound/counting.hpp"
#include "src/lowerbound/tradeoff.hpp"

namespace upn {
namespace {

TEST(Constants, RMatchesLemma313) {
  CountingConstants constants;
  constants.host_degree = 4;
  EXPECT_NEAR(constants.r(), 3472.0 + 384.0 * 2.0, 1e-9);
  constants.host_degree = 8;
  EXPECT_NEAR(constants.r(), 3472.0 + 384.0 * 3.0, 1e-9);
}

TEST(Counting, GuestCountGrowsWithN) {
  const CountingConstants constants;
  const double small = log2_guest_count_lower(1024, constants);
  const double large = log2_guest_count_lower(4096, constants);
  EXPECT_GT(large, small);
  // Leading term (c-12)/2 * n * log2 n = 2 n log2 n.
  EXPECT_NEAR(small, 2.0 * 1024 * 10 - constants.delta * 1024, 1e-6);
}

TEST(Counting, SimulableCountMonotoneInK) {
  const CountingConstants constants;
  const double n = 4096, m = 1024;
  EXPECT_LT(log2_simulable_count(n, m, 0.5, constants),
            log2_simulable_count(n, m, 1.0, constants));
  EXPECT_LT(log2_simulable_count(n, m, 1.0, constants),
            log2_simulable_count(n, m, 2.0, constants));
}

TEST(Counting, InfeasibilityFlipsExactlyOnce) {
  const CountingConstants constants;
  const double n = 1 << 20, m = 1 << 16;
  const double k_min = min_feasible_inefficiency(n, m, constants);
  EXPECT_GT(k_min, 0.0);
  EXPECT_TRUE(inefficiency_infeasible(n, m, k_min * 0.9, constants));
  EXPECT_FALSE(inefficiency_infeasible(n, m, k_min * 1.1, constants));
}

TEST(Counting, MinInefficiencySatisfiesThresholdIdentity) {
  // The n-dependent terms cancel, leaving the exact threshold equation
  //   r k + log2(q k) + delta = gamma (c-12)/4 log2 m,
  // i.e. k = Omega(log m) with an additive log-correction at small k.
  const CountingConstants constants;
  const double n = 1e12;
  for (const double m : {1e3, 1e6, 1e9}) {
    const double k = min_feasible_inefficiency(n, m, constants);
    const double lhs = constants.r() * k + std::log2(constants.q * k) + constants.delta;
    const double rhs = 0.5 * constants.gamma *
                       ((constants.c - constants.g0_degree) / 2.0) * std::log2(m);
    EXPECT_NEAR(lhs, rhs, 0.01 * std::abs(rhs)) << "m=" << m;
  }
  // And k grows with m.
  EXPECT_GT(min_feasible_inefficiency(n, 1e9, constants),
            min_feasible_inefficiency(n, 1e3, constants));
}

TEST(Counting, MinInefficiencyIsIndependentOfN) {
  // After cancellation the threshold does not involve n.
  const CountingConstants constants;
  const double m = 1e6;
  EXPECT_NEAR(min_feasible_inefficiency(1e9, m, constants),
              min_feasible_inefficiency(1e15, m, constants), 1e-9);
}

TEST(Counting, ClosedFormTracksBinarySearch) {
  const CountingConstants constants;
  for (const double m : {1e4, 1e6, 1e9}) {
    const double closed = closed_form_inefficiency(m, constants);
    const double searched = min_feasible_inefficiency(1e15, m, constants);
    EXPECT_NEAR(closed, searched, 0.01 * closed) << "m=" << m;
  }
}

TEST(Tradeoff, SweepRowsAreConsistent) {
  const auto rows = lower_bound_sweep(1e9, {1e3, 1e5, 1e7});
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_NEAR(row.slowdown_bound,
                std::max(1.0, row.k_counting * row.n / row.m), 1e-9);
    EXPECT_GE(row.slowdown_bound, 1.0);
    EXPECT_GT(row.k_counting, 0.0);
  }
  // k grows with m.
  EXPECT_LT(rows[0].k_counting, rows[2].k_counting);
}

TEST(Tradeoff, CheckNetworkVerdicts) {
  // With the paper's huge constants the bound only bites at large n/m:
  // a host of 1024 processors claiming slowdown 1 for n = 10^12 guests.
  const TradeoffVerdict bad = check_network(1e12, 1 << 10, 1.0);
  EXPECT_TRUE(bad.ruled_out_paper_constants);
  EXPECT_TRUE(bad.ruled_out_normalized);
  EXPECT_GT(bad.required_slowdown, 1.0);
  // Slowdown n/m * log2 m passes both bounds.
  const double n = 1e12, m = 1 << 10;
  const TradeoffVerdict good = check_network(n, m, (n / m) * std::log2(m));
  EXPECT_FALSE(good.ruled_out_normalized);
  EXPECT_FALSE(good.ruled_out_paper_constants);
}

TEST(Tradeoff, UpperBoundTradeoffFrom14) {
  // s * log l = O(log n): with l = n^(1/2), s ~ 2.
  EXPECT_NEAR(upper_bound_slowdown(1 << 20, std::exp2(10)), 2.0, 1e-9);
  // l = 1: plain log n slowdown.
  EXPECT_NEAR(upper_bound_slowdown(1 << 20, 1.0), 20.0, 1e-9);
}

TEST(Tradeoff, MsOverNLogMIsNearlyConstant) {
  // Theorem 3.1's product form: (m * s_bound) / (n log m) ~ constant.
  const auto rows = lower_bound_sweep(1e12, {1e4, 1e6, 1e8});
  const double r0 = rows[0].ms_over_nlogm;
  for (const auto& row : rows) {
    EXPECT_NEAR(row.ms_over_nlogm, r0, 0.5 * r0);
  }
}

}  // namespace
}  // namespace upn
