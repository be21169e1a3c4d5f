#include "tests/support/snapshot_text.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace upn::obs {

namespace {

const char* type_name(char type) noexcept {
  switch (type) {
    case 'c': return "counter";
    case 'g': return "gauge";
    default: return "histogram";
  }
}

}  // namespace

void write_snapshot_text(std::ostream& out, const std::vector<MetricRow>& rows) {
  std::size_t name_width = 0;
  for (const MetricRow& row : rows) name_width = std::max(name_width, row.name.size());
  for (const MetricRow& row : rows) {
    out << std::left << std::setw(10) << type_name(row.type) << std::setw(
               static_cast<int>(name_width) + 2)
        << row.name;
    switch (row.type) {
      case 'c':
        out << row.count;
        break;
      case 'g':
        out << "value=" << row.value << " max=" << row.max;
        break;
      default: {
        out << "count=" << row.count << " sum=" << row.sum << " [";
        bool first = true;
        for (const auto& [bucket, in_bucket] : row.buckets) {
          if (!first) out << ' ';
          first = false;
          out << bucket << ':' << in_bucket;
        }
        out << "]";
        break;
      }
    }
    out << '\n';
  }
}

std::string snapshot_text(const std::vector<MetricRow>& rows) {
  std::ostringstream out;
  write_snapshot_text(out, rows);
  return out.str();
}

}  // namespace upn::obs
