// The aligned-text rendering of a metric snapshot.  The golden and
// differential obs suites compare these strings directly; library code
// exports snapshots as JSON (src/obs/export.hpp).
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

/// Convenience: snapshot -> text string.
[[nodiscard]] std::string snapshot_text(const std::vector<MetricRow>& rows);

}  // namespace upn::obs
