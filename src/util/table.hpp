// Console table / CSV emission used by benches and examples.
//
// Every experiment binary prints the same rows the paper's math predicts; the
// Table class keeps those rows aligned for humans and can mirror them to CSV
// for plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace upn {

/// One table cell: string, integer, or floating point value.
using Cell = std::variant<std::string, std::int64_t, std::uint64_t, double>;

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<Cell> cells);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Render with aligned columns, a header rule, and two-space gutters.
  void print(std::ostream& os) const;

  /// Render as RFC-4180-ish CSV (no quoting needed for our content).
  void write_csv(std::ostream& os) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& cell) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  /// Significant digits of a double cell.
  static constexpr int kPrecision = 4;
};

}  // namespace upn
