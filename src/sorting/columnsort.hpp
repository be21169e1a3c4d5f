// Leighton's Columnsort (1985).
//
// The paper's deterministic h-h routing alternative (Section 2) applies
// "Leighton's Columnsort approach to the AKS sorting circuit".  Columnsort
// sorts an r x s matrix (column-major order) using 8 steps, 4 of which sort
// columns independently; correctness requires r >= 2(s-1)^2.  Any column
// sorter can be plugged in, so a depth-D sorter on r keys yields a depth
// O(D) sorter on r*s keys -- the size amplification the paper exploits.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace upn {

/// Sorts one column in place.
using ColumnSorter = std::function<void(std::span<std::uint64_t>)>;

struct ColumnsortStats {
  std::uint32_t column_sort_rounds = 0;  ///< parallel column-sort phases (4)
  std::uint32_t permutation_rounds = 0;  ///< transpose/shift data movements (4)
};

/// Sorts `values` (interpreted as an r x s matrix in column-major order)
/// with Columnsort.  Requires values.size() == r*s, s >= 1, r divisible by s,
/// and r >= 2(s-1)^2; throws otherwise.  Returns phase statistics.
ColumnsortStats columnsort(std::vector<std::uint64_t>& values, std::uint32_t r,
                           std::uint32_t s, const ColumnSorter& sorter);

/// Convenience overload using std::sort per column.
ColumnsortStats columnsort(std::vector<std::uint64_t>& values, std::uint32_t r,
                           std::uint32_t s);

}  // namespace upn
