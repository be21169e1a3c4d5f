// The copy-per-guest fragment extraction, preserved as the differential-
// testing oracle for extract_fragment (src/pebble/fragment.cpp), with the
// Fragment readers it was read through: total_b_size,
// log2_multiplicity_bound, count_small_d and fragment_hash.
//
// It stores B_i and D_i as one vector per guest, D_i a full copy of the
// guest list of processor b_i.  It must never be "optimized": its value is
// that it builds Definition 3.2's (B, b, D) the slow, obviously-correct way.
// tests/fragment_differential_test.cpp asserts that B(i), b(i), D(i) and
// every reader agree with it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/fragment.hpp"
#include "src/pebble/metrics.hpp"

namespace upn::testing {

struct ReferenceFragment {
  std::uint32_t t0 = 0;
  std::vector<std::vector<std::uint32_t>> B;  ///< B_i, sorted processor ids
  std::vector<std::uint32_t> b;               ///< b_i (one generator each)
  std::vector<std::vector<std::uint32_t>> D;  ///< D_i, sorted guest ids

  /// Sum of |B_i|.
  [[nodiscard]] std::uint64_t total_b_size() const;
};

/// Reference semantics of extract_fragment.
[[nodiscard]] ReferenceFragment reference_extract_fragment(const ProtocolMetrics& metrics,
                                                           std::uint32_t t0);

/// Reference semantics of log2_multiplicity_bound.
[[nodiscard]] double reference_log2_multiplicity_bound(const ReferenceFragment& fragment,
                                                       std::uint32_t c);

/// Reference semantics of count_small_d.
[[nodiscard]] std::uint32_t reference_count_small_d(const ReferenceFragment& fragment,
                                                    double threshold);

/// Reference semantics of fragment_hash.
[[nodiscard]] std::uint64_t reference_fragment_hash(const ReferenceFragment& fragment);

/// A Fragment over `num_hosts` processors with the given B_i (one sorted
/// set per guest) and b_i, for hand-built fixtures.
[[nodiscard]] Fragment make_fragment(std::uint32_t t0, std::uint32_t num_hosts,
                                     const std::vector<std::vector<std::uint32_t>>& B,
                                     std::vector<std::uint32_t> b);

}  // namespace upn::testing
