#include "src/topology/random_regular.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace upn {

namespace {

/// Canonical 64-bit key for an undirected edge.
std::uint64_t edge_key(NodeId u, NodeId v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Pairing-model sampler with repair.  `forbidden` edges count as violations
/// too (used to avoid duplicating a planted subgraph's edges).
std::vector<std::pair<NodeId, NodeId>> sample_pairing(
    std::uint32_t n, std::uint32_t c, Rng& rng,
    const std::unordered_set<std::uint64_t>& forbidden) {
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * c);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t j = 0; j < c; ++j) stubs.push_back(v);
  }
  rng.shuffle(stubs);

  const std::size_t num_pairs = stubs.size() / 2;
  auto endpoint = [&](std::size_t pair, int side) -> NodeId& {
    return stubs[2 * pair + static_cast<std::size_t>(side)];
  };

  std::unordered_set<std::uint64_t> used;
  used.reserve(num_pairs * 2);
  auto is_bad = [&](NodeId a, NodeId b) {
    return a == b || forbidden.count(edge_key(a, b)) != 0 || used.count(edge_key(a, b)) != 0;
  };

  // Repair loop: re-draw violating pairs by swapping an endpoint with a
  // random other pair.  Each swap keeps the degree sequence intact.
  const std::size_t max_attempts = 200 * num_pairs + 10000;
  std::size_t attempts = 0;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    while (is_bad(endpoint(p, 0), endpoint(p, 1))) {
      if (++attempts > max_attempts) {
        throw std::runtime_error{"make_random_regular: repair failed to converge"};
      }
      const auto q = static_cast<std::size_t>(rng.below(num_pairs));
      if (q == p) continue;
      const int side = static_cast<int>(rng.below(2));
      // Only swap with an already-finalized pair if the swap keeps it valid.
      NodeId& mine = endpoint(p, 1);
      NodeId& theirs = endpoint(q, side);
      const NodeId their_other = endpoint(q, 1 - side);
      if (q < p) {
        used.erase(edge_key(theirs, their_other));
        if (is_bad(endpoint(p, 0), theirs) || is_bad(mine, their_other)) {
          used.insert(edge_key(theirs, their_other));  // roll back
          continue;
        }
        std::swap(mine, theirs);
        used.insert(edge_key(endpoint(q, 0), endpoint(q, 1)));
      } else {
        std::swap(mine, theirs);
      }
    }
    used.insert(edge_key(endpoint(p, 0), endpoint(p, 1)));
  }

  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    edges.emplace_back(endpoint(p, 0), endpoint(p, 1));
  }
  return edges;
}

}  // namespace

Graph make_random_regular(std::uint32_t n, std::uint32_t c, Rng& rng) {
  if (c >= n || (static_cast<std::uint64_t>(n) * c) % 2 != 0) {
    throw std::invalid_argument{"make_random_regular: need c < n and n*c even"};
  }
  const auto edges = sample_pairing(n, c, rng, {});
  GraphBuilder builder{n, "random_regular(n=" + std::to_string(n) +
                              ",c=" + std::to_string(c) + ")"};
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return std::move(builder).build();
}

Graph make_random_regular_with_subgraph(const Graph& base, std::uint32_t c, Rng& rng) {
  const std::uint32_t n = base.num_nodes();
  const std::uint32_t b = base.max_degree();
  if (c <= b) {
    throw std::invalid_argument{
        "make_random_regular_with_subgraph: c must exceed the base max degree"};
  }
  const std::uint32_t residual = c - b;
  if ((static_cast<std::uint64_t>(n) * residual) % 2 != 0) {
    throw std::invalid_argument{"make_random_regular_with_subgraph: n*(c-b) must be even"};
  }
  std::unordered_set<std::uint64_t> forbidden;
  for (const auto& [u, v] : base.edge_list()) forbidden.insert(edge_key(u, v));
  const auto edges = sample_pairing(n, residual, rng, forbidden);
  GraphBuilder builder{n, "planted(" + base.name() + ",c=" + std::to_string(c) + ")"};
  for (const auto& [u, v] : base.edge_list()) builder.add_edge(u, v);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return std::move(builder).build();
}

}  // namespace upn
