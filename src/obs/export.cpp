#include "src/obs/export.hpp"

#include <algorithm>
#include <map>
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

const char* kind_name(MetricKind kind) noexcept {
  return kind == MetricKind::kDeterministic ? "deterministic" : "timing";
}

void write_buckets_json(std::ostream& out, const MetricRow& row) {
  out << "[";
  bool first = true;
  for (const auto& [bucket, in_bucket] : row.buckets) {
    if (!first) out << ",";
    first = false;
    out << "[" << bucket << "," << in_bucket << "]";
  }
  out << "]";
}

}  // namespace

void write_snapshot_json(std::ostream& out, const std::vector<MetricRow>& rows,
                         int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << "[";
  bool first = true;
  for (const MetricRow& row : rows) {
    if (!first) out << ",";
    first = false;
    out << "\n" << pad << "  {\"name\": \"" << row.name << "\", \"type\": \""
        << type_name(row.type) << "\", \"kind\": \"" << kind_name(row.kind) << "\"";
    switch (row.type) {
      case 'c':
        out << ", \"count\": " << row.count;
        break;
      case 'g':
        out << ", \"value\": " << row.value << ", \"max\": " << row.max;
        break;
      default:
        out << ", \"count\": " << row.count << ", \"sum\": " << row.sum
            << ", \"buckets\": ";
        write_buckets_json(out, row);
        break;
    }
    out << "}";
  }
  if (!rows.empty()) out << "\n" << pad;
  out << "]";
}

std::string snapshot_json(const std::vector<MetricRow>& rows, int indent) {
  std::ostringstream out;
  write_snapshot_json(out, rows, indent);
  return out.str();
}

std::vector<MetricRow> delta_rows(const std::vector<MetricRow>& before,
                                  const std::vector<MetricRow>& after) {
  std::map<std::string, const MetricRow*> baseline;
  for (const MetricRow& row : before) baseline.emplace(row.name, &row);
  std::vector<MetricRow> deltas;
  for (const MetricRow& row : after) {
    MetricRow delta = row;
    const auto it = baseline.find(row.name);
    const MetricRow* base = it != baseline.end() ? it->second : nullptr;
    if (base != nullptr) {
      switch (row.type) {
        case 'c':
          delta.count = row.count - base->count;
          break;
        case 'g':
          // Gauges cannot be un-merged: report the after-state as-is.
          break;
        default: {
          delta.count = row.count - base->count;
          delta.sum = row.sum - base->sum;
          std::map<std::uint32_t, std::uint64_t> merged;
          for (const auto& [bucket, in_bucket] : row.buckets) merged[bucket] = in_bucket;
          for (const auto& [bucket, in_bucket] : base->buckets) merged[bucket] -= in_bucket;
          delta.buckets.clear();
          for (const auto& [bucket, in_bucket] : merged) {
            if (in_bucket != 0) delta.buckets.emplace_back(bucket, in_bucket);
          }
          break;
        }
      }
    }
    const bool moved = delta.type == 'g'
                           ? (delta.value != 0 || delta.max != 0)
                           : (delta.count != 0 || delta.sum != 0 || !delta.buckets.empty());
    if (moved) deltas.push_back(std::move(delta));
  }
  return deltas;
}

}  // namespace upn::obs
