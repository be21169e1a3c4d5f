#include "src/sorting/columnsort.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace upn {

namespace {

void sort_all_columns(std::vector<std::uint64_t>& values, std::uint32_t r, std::uint32_t s,
                      const ColumnSorter& sorter) {
  for (std::uint32_t j = 0; j < s; ++j) {
    sorter(std::span<std::uint64_t>{values.data() + static_cast<std::size_t>(j) * r, r});
  }
}

}  // namespace

ColumnsortStats columnsort(std::vector<std::uint64_t>& values, std::uint32_t r,
                           std::uint32_t s, const ColumnSorter& sorter) {
  if (s == 0 || r == 0 || values.size() != static_cast<std::size_t>(r) * s) {
    throw std::invalid_argument{"columnsort: values.size() must equal r*s"};
  }
  if (s > 1) {
    if (r % s != 0) throw std::invalid_argument{"columnsort: r must be divisible by s"};
    const std::uint64_t bound = 2ull * (s - 1) * (s - 1);
    if (r < bound) throw std::invalid_argument{"columnsort: requires r >= 2(s-1)^2"};
  }
  ColumnsortStats stats;
  if (s == 1) {
    sorter(std::span<std::uint64_t>{values});
    stats.column_sort_rounds = 1;
    return stats;
  }

  const std::size_t n = values.size();
  std::vector<std::uint64_t> scratch(n);

  // Step 1: sort columns.
  sort_all_columns(values, r, s, sorter);
  ++stats.column_sort_rounds;

  // Step 2: "transpose": read column-major, write row-major.
  // Entry at matrix position (i, j) receives sequence element i*s + j.
  for (std::uint32_t j = 0; j < s; ++j) {
    for (std::uint32_t i = 0; i < r; ++i) {
      scratch[static_cast<std::size_t>(j) * r + i] =
          values[static_cast<std::size_t>(i) * s + j];
    }
  }
  values.swap(scratch);
  ++stats.permutation_rounds;

  // Step 3: sort columns.
  sort_all_columns(values, r, s, sorter);
  ++stats.column_sort_rounds;

  // Step 4: "untranspose": inverse of step 2.
  for (std::uint32_t j = 0; j < s; ++j) {
    for (std::uint32_t i = 0; i < r; ++i) {
      scratch[static_cast<std::size_t>(i) * s + j] =
          values[static_cast<std::size_t>(j) * r + i];
    }
  }
  values.swap(scratch);
  ++stats.permutation_rounds;

  // Step 5: sort columns.
  sort_all_columns(values, r, s, sorter);
  ++stats.column_sort_rounds;

  // Step 6: shift forward by floor(r/2) with -inf/+inf sentinels, making an
  // r x (s+1) matrix.
  const std::uint32_t half = r / 2;
  std::vector<std::uint64_t> shifted(static_cast<std::size_t>(r) * (s + 1));
  std::fill(shifted.begin(), shifted.begin() + half, std::numeric_limits<std::uint64_t>::min());
  std::copy(values.begin(), values.end(), shifted.begin() + half);
  std::fill(shifted.begin() + half + static_cast<std::ptrdiff_t>(n), shifted.end(),
            std::numeric_limits<std::uint64_t>::max());
  ++stats.permutation_rounds;

  // Step 7: sort the s+1 columns.
  sort_all_columns(shifted, r, s + 1, sorter);
  ++stats.column_sort_rounds;

  // Step 8: unshift (drop the sentinels).
  std::copy(shifted.begin() + half, shifted.begin() + half + static_cast<std::ptrdiff_t>(n),
            values.begin());
  ++stats.permutation_rounds;
  return stats;
}

ColumnsortStats columnsort(std::vector<std::uint64_t>& values, std::uint32_t r,
                           std::uint32_t s) {
  return columnsort(values, r, s, [](std::span<std::uint64_t> column) {
    std::sort(column.begin(), column.end());
  });
}

}  // namespace upn
