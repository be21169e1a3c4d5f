// Operational statistics of a protocol: the library-surface view of how a
// simulation spends its host steps.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/protocol.hpp"

namespace upn {

struct ProtocolStats {
  std::uint64_t generates = 0;
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t idle_slots = 0;     ///< processor-steps with no operation
  double utilization = 0.0;         ///< ops / (T' * m)
  std::uint32_t busiest_proc = 0;
  std::uint64_t busiest_proc_ops = 0;
  std::uint32_t laziest_proc = 0;
  std::uint64_t laziest_proc_ops = 0;
  /// Communication fraction: (sends + receives) / ops.
  double comm_fraction = 0.0;
};

/// Like ProtocolMetrics, assumes a valid protocol (run validate_protocol
/// first): with more than one op per processor in a step, `idle_slots`
/// would wrap.
[[nodiscard]] ProtocolStats protocol_stats(const Protocol& protocol);

}  // namespace upn
