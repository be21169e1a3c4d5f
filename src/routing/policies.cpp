#include "src/routing/policies.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

#include "src/topology/properties.hpp"
#include "src/util/contracts.hpp"

namespace upn {

const std::vector<std::uint16_t>& DistanceOracle::compute(NodeId dst) {
  const std::size_t n = graph_->num_nodes();
  if (cache_.size() <= dst) {
    cache_.resize(n);
    if (masks_) {
      mask_flat_.resize(n * n);
      mask_built_.resize(n, 0);
    }
  }
  const auto wide = bfs_distances(*graph_, dst);
  std::vector<std::uint16_t> narrow(wide.size());
  for (std::size_t v = 0; v < wide.size(); ++v) {
    if (wide[v] == kUnreachable) {
      throw std::invalid_argument{"DistanceOracle: graph must be connected"};
    }
    UPN_REQUIRE(wide[v] <= std::numeric_limits<std::uint16_t>::max());
    narrow[v] = static_cast<std::uint16_t>(wide[v]);
  }
  if (masks_ && mask_built_[dst] == 0) {
    std::uint8_t* mask = mask_flat_.data() + static_cast<std::size_t>(dst) * n;
    for (NodeId at = 0; at < wide.size(); ++at) {
      const auto nbrs = graph_->neighbors(at);
      std::uint16_t best = std::numeric_limits<std::uint16_t>::max();
      for (const NodeId u : nbrs) best = std::min(best, narrow[u]);
      std::uint8_t bits = 0;
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        // p < degree <= 8, so the bit fits u8:
        if (narrow[nbrs[p]] == best) bits |= static_cast<std::uint8_t>(1u << p);  // upn-analyze-waive(narrowing-cast: p < degree <= 8)
      }
      mask[at] = bits;
    }
    mask_built_[dst] = 1;
  }
  cache_[dst] = std::move(narrow);
  return cache_[dst];
}

std::uint32_t greedy_next_port(const Graph& graph, DistanceOracle& oracle, NodeId at,
                               NodeId target, std::uint32_t salt) {
  // Node bounds are the router's placement invariant; an empty minimizer set
  // throws below.
  const auto nbrs = graph.neighbors(at);
  // Fast path: the oracle's one-byte port mask names the minimizer set in
  // neighbor-rank order, replacing the distance-row gather below with a
  // single load.  Both paths choose the identical port.
  if (const std::uint8_t* masks = oracle.minimizer_masks(target)) {
    const std::uint8_t mask = masks[at];
    const auto count = static_cast<std::uint32_t>(std::popcount(mask));
    if (count == 1) return static_cast<std::uint32_t>(std::countr_zero(mask));
    if (count > 1) {
      const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
      // hash % count, but tie counts are tiny and usually powers of two
      // (butterfly/hypercube), where a mask beats the 64-bit division.
      const std::uint32_t skip =
          std::has_single_bit(count) ? static_cast<std::uint32_t>(hash & (count - 1))
                                     : static_cast<std::uint32_t>(hash % count);
      std::uint8_t m = mask;
      // Clearing the lowest set bit keeps the value within u8:
      for (std::uint32_t c = skip; c > 0; --c) m = static_cast<std::uint8_t>(m & (m - 1));  // upn-analyze-waive(narrowing-cast: clearing a bit stays in u8)
      return static_cast<std::uint32_t>(std::countr_zero(m));
    }
    throw std::logic_error{"greedy_next_hop: no neighbor found"};
  }
  const auto& dist = oracle.to(target);
  std::uint16_t best = std::numeric_limits<std::uint16_t>::max();
  std::uint32_t count = 0;
  std::uint32_t first = 0;
  for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
    if (dist[nbrs[p]] < best) {
      best = dist[nbrs[p]];
      count = 1;
      first = p;
    } else if (dist[nbrs[p]] == best) {
      ++count;
    }
  }
  // Unique minimizer: hash % 1 == 0 always selects it, so skip the hash and
  // the second scan on this (most common) path.
  if (count == 1) return first;
  // Pick the (hash % count)-th minimizer: deterministic per packet, but
  // different packets spread across the tied shortest-path neighbors.
  const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
  std::uint32_t skip = static_cast<std::uint32_t>(hash % count);
  for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
    if (dist[nbrs[p]] == best) {
      if (skip == 0) return p;
      --skip;
    }
  }
  throw std::logic_error{"greedy_next_hop: no neighbor found"};
}

NodeId greedy_next_hop(const Graph& graph, DistanceOracle& oracle, NodeId at, NodeId target,
                       std::uint32_t salt) {
  return graph.neighbors(at)[greedy_next_port(graph, oracle, at, target, salt)];
}

NodeId GreedyPolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  return greedy_next_hop(graph, oracle_, at, packet.current_target(), packet.id);
}

void ValiantPolicy::prepare(const Graph& graph, std::vector<Packet>& packets) {
  for (Packet& p : packets) {
    p.via = static_cast<NodeId>(rng_.below(graph.num_nodes()));
    p.phase = 0;
  }
}

NodeId ValiantPolicy::next_hop(const Graph& graph, NodeId at, const Packet& packet) {
  return greedy_next_hop(graph, oracle_, at, packet.current_target(), packet.id);
}

}  // namespace upn
