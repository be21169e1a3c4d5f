// Snapshot exporters: human-readable text and JSON for the metric registry.
//
// Both formats render a vector<MetricRow> (already name-sorted by
// Registry::snapshot), so serializing a deterministic snapshot yields
// byte-identical output across thread counts -- the differential and golden
// tests compare these strings directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace upn::obs {

/// Renders rows as aligned text, one metric per line:
///   counter    sim.universal.packets_routed       1536
///   gauge      routing.sync.max_queue_depth       value=0 max=7
///   histogram  routing.sync.queue_depth           count=96 sum=188 [0:12 1:40 2:44]
void write_snapshot_text(std::ostream& out, const std::vector<MetricRow>& rows);

/// Renders rows as a JSON array (stable key order, no whitespace dependence
/// on locale).  `indent` spaces of leading indentation per line lets callers
/// embed the array inside a larger document (the bench harness does).
void write_snapshot_json(std::ostream& out, const std::vector<MetricRow>& rows,
                         int indent = 0);

/// Convenience: snapshot -> JSON string (write_snapshot_json's `indent`).
[[nodiscard]] std::string snapshot_json(const std::vector<MetricRow>& rows, int indent = 0);

/// Convenience: snapshot -> text string.
[[nodiscard]] std::string snapshot_text(const std::vector<MetricRow>& rows);

/// Per-section metric attribution: `after - before` for every metric present
/// in `after`.  Counters/histograms subtract; gauges keep the `after` value
/// and max (a max cannot be un-merged).  Rows whose delta is entirely zero
/// are dropped, so a section reports exactly the metrics it moved.
[[nodiscard]] std::vector<MetricRow> delta_rows(const std::vector<MetricRow>& before,
                                                const std::vector<MetricRow>& after);

}  // namespace upn::obs
