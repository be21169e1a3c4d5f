// Off-line schedules as Section 3.1 pebble protocols.
//
// The off-line butterfly schedule (offline_butterfly.hpp) is multiport: in
// one step a processor may forward one packet while receiving up to two
// (the forward and backward Benes sweeps cross).  The pebble game allows
// ONE operation per processor per step, so each multiport step is expanded
// into a small number of single-port steps by edge-coloring its transfer
// multigraph: the transfers of a step connect adjacent butterfly levels
// (bipartite) with node degree <= 4, so a greedy coloring needs at most 7
// colors and Koenig guarantees 4 suffice.  The result is a complete pebble
// protocol (schedule_protocol_test validates it) realizing Theorem 2.1's
// corollary: butterfly + off-line routing, one generate per guest per step.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pebble/protocol.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct OfflineProtocolResult {
  Protocol protocol;
  std::uint32_t multiport_steps_per_guest_step = 0;
  std::uint32_t single_port_steps_per_guest_step = 0;  ///< after coloring
  double expansion_factor = 0.0;  ///< single-port / multiport
};

/// Builds the pebble protocol of the off-line universal simulation of
/// `guest` on the dimension-d unwrapped butterfly under `embedding`.  It
/// validates nothing; schedule_protocol_test replays it.
[[nodiscard]] OfflineProtocolResult make_offline_universal_protocol(
    const Graph& guest, std::uint32_t butterfly_dimension,
    const std::vector<NodeId>& embedding, std::uint32_t guest_steps);

}  // namespace upn
