// Textual (de)serialization of precomputed path schedules.
//
// Format (line-oriented, whitespace-separated, mirroring pebble/io):
//   upn-schedule 1 <num_packets> <congestion> <dilation> <makespan>
//   step
//   M <packet> <from> <to>
//   ...
// One `step` line per schedule step.  The header declares the congestion
// (max uses of one directed link) and dilation (max per-packet hops) the
// producer claims for the whole schedule; upn_analyze re-derives both
// from the moves WITHOUT replaying the schedule on a host and rejects files
// that exceed their declaration.  This is the static well-formedness story
// of Baral et al.'s connection schedules applied to our LMR-style greedy.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "src/routing/path_schedule.hpp"

namespace upn {

/// Hostile-input cap on packets / steps (same rationale as pebble/io caps).
inline constexpr std::uint32_t kMaxScheduleDimension = 1u << 26;

/// A schedule as stored on disk: the moves plus the declared packet count.
struct StoredPathSchedule {
  PathSchedule schedule;           ///< congestion/dilation as DECLARED on disk
  std::uint32_t num_packets = 0;
};

void write_path_schedule(std::ostream& os, const PathSchedule& schedule,
                         std::uint32_t num_packets);

/// Parses a schedule; throws std::runtime_error with a line number on
/// malformed input (bad header, unknown records, packet ids >= num_packets,
/// moves before the first step).  Declared congestion/dilation bounds are
/// parsed but NOT verified -- that is the linter's job.
[[nodiscard]] StoredPathSchedule read_path_schedule(std::istream& is);

}  // namespace upn
