#include "src/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace upn {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument{"Table: needs at least one column"};
}

void Table::add_row(std::vector<Cell> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument{"Table: row width does not match header count"};
  }
  rows_.push_back(std::move(cells));
}

std::string Table::format_cell(const Cell& cell) const {
  std::ostringstream out;
  std::visit(
      [&](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, double>) {
          out << std::setprecision(kPrecision) << value;
        } else {
          out << value;
        }
      },
      cell);
  return std::move(out).str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << (c + 1 == cells.size() ? "\n" : "  ");
    }
  };
  emit(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c], '-') << (c + 1 == headers_.size() ? "\n" : "  ");
  }
  for (const auto& row : rendered) emit(row);
}

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << headers_[c] << (c + 1 == headers_.size() ? "\n" : ",");
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << format_cell(row[c]) << (c + 1 == row.size() ? "\n" : ",");
    }
  }
}

}  // namespace upn
