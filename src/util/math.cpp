#include "src/util/math.hpp"

#include <cmath>
#include <limits>

namespace upn {

namespace {
constexpr double kLog2E = 1.4426950408889634074;  // log2(e)
}  // namespace

double log2_factorial(double x) noexcept {
  if (x < 0) return -std::numeric_limits<double>::infinity();
  // std::lgamma writes the process-global `signgam`, which is a data race
  // when pool workers evaluate counting bounds concurrently; use the
  // reentrant form where the platform has it.
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x + 1.0, &sign) * kLog2E;
#else
  return std::lgamma(x + 1.0) * kLog2E;
#endif
}

double log2_binomial(double n, double k) noexcept {
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  if (k <= 0 || k >= n) return 0.0;  // k == 0 or k == n behind the guard above
  return log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k);
}

std::uint64_t isqrt(std::uint64_t x) noexcept {
  if (x == 0) return 0;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  if (r > 0xffffffffULL) r = 0xffffffffULL;  // floor(sqrt(2^64-1))
  // sqrt on doubles can be off by one ulp for large x; correct exactly.
  // Overflow-safe comparisons: r*r > x <=> r > x/r for r > 0.
  while (r > 0 && r > x / r) --r;
  while (r < 0xffffffffULL && (r + 1) <= x / (r + 1)) ++r;
  return r;
}

}  // namespace upn
