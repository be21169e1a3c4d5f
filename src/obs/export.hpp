// Snapshot exporter: JSON for the metric registry, plus per-section deltas.
//
// It renders a vector<MetricRow> (already name-sorted by
// Registry::snapshot), so serializing a deterministic snapshot yields
// byte-identical output across thread counts.  The text rendering the
// golden and differential tests compare lives in tests/support.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace upn::obs {

/// Renders rows as a JSON array (stable key order, no whitespace dependence
/// on locale).  `indent` spaces of leading indentation per line lets callers
/// embed the array inside a larger document (the bench harness does).
void write_snapshot_json(std::ostream& out, const std::vector<MetricRow>& rows,
                         int indent = 0);

/// Convenience: snapshot -> JSON string (write_snapshot_json's `indent`).
[[nodiscard]] std::string snapshot_json(const std::vector<MetricRow>& rows, int indent = 0);

/// Per-section metric attribution: `after - before` for every metric present
/// in `after`.  Counters/histograms subtract; gauges keep the `after` value
/// and max (a max cannot be un-merged).  Rows whose delta is entirely zero
/// are dropped, so a section reports exactly the metrics it moved.
[[nodiscard]] std::vector<MetricRow> delta_rows(const std::vector<MetricRow>& before,
                                                const std::vector<MetricRow>& after);

}  // namespace upn::obs
