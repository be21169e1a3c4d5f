// Log-domain combinatorics and small integer helpers.
//
// The lower-bound counting of Section 3 (Lemmas 3.3, 3.5, 3.13 and
// Theorem 3.1) multiplies numbers like n^((c-12)/2 * n): far beyond any
// fixed-width float for interesting n.  All counting in src/lowerbound/ is
// therefore done in log2 domain via the helpers here; lgamma gives binomials
// with ~1e-14 relative error, which is irrelevant at the magnitudes reported.
#pragma once

#include <bit>
#include <cstdint>

namespace upn {

/// log2(x!) via lgamma.
[[nodiscard]] double log2_factorial(double x) noexcept;

/// log2 of the binomial coefficient C(n, k).  Returns -inf for k > n or k < 0.
[[nodiscard]] double log2_binomial(double n, double k) noexcept;

/// Integer floor(log2(x)); x must be > 0.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  return 63u - static_cast<std::uint32_t>(std::countl_zero(x));
}

/// Integer ceil(log2(x)); x must be > 0.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0u : floor_log2(x - 1) + 1u;
}

[[nodiscard]] constexpr bool is_power_of_two(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Smallest power of two >= x (x must be >= 1 and representable).
[[nodiscard]] constexpr std::uint64_t next_power_of_two(std::uint64_t x) noexcept {
  return x <= 1 ? 1 : (std::uint64_t{1} << ceil_log2(x));
}

/// Integer square root: floor(sqrt(x)).
[[nodiscard]] std::uint64_t isqrt(std::uint64_t x) noexcept;

/// Ceiling division for unsigned integers.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace upn
