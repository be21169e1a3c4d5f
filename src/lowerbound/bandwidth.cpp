#include "src/lowerbound/bandwidth.hpp"

#include <stdexcept>

#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"

namespace upn {

BandwidthBound bandwidth_lower_bound(const Graph& guest, const Graph& host,
                                     const std::vector<NodeId>& embedding) {
  if (embedding.size() != guest.num_nodes()) {
    throw std::invalid_argument{"bandwidth_lower_bound: embedding size mismatch"};
  }
  UPN_REQUIRE(host.num_nodes() > 0);
  BandwidthBound bound;
  DistanceOracle oracle{host};
  std::uint32_t max_distance = 0;
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    for (const NodeId v : guest.neighbors(u)) {
      // Both directions count: each endpoint needs the other's configuration.
      const std::uint32_t distance = oracle.to(embedding[v])[embedding[u]];
      bound.total_demand += distance;
      if (distance > max_distance) max_distance = distance;
    }
  }
  bound.link_capacity = 2 * host.num_edges();
  bound.multiport_bound =
      bound.link_capacity == 0
          ? 0.0
          : static_cast<double>(bound.total_demand) / static_cast<double>(bound.link_capacity);
  // Single-port: each step's transfers form a matching of <= m/2 pairs,
  // each advancing one packet by one hop.
  const double matchings = host.num_nodes() / 2.0;
  bound.single_port_bound =
      host.num_nodes() == 0 ? 0.0 : static_cast<double>(bound.total_demand) / matchings;
  bound.diameter_bound = max_distance;
  UPN_ENSURE(bound.multiport_bound >= 0.0 && bound.single_port_bound >= 0.0);
  return bound;
}

}  // namespace upn
