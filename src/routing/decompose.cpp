#include "src/routing/decompose.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/routing/matching.hpp"

namespace upn {

namespace {

struct Edge {
  std::uint32_t src;
  std::uint32_t dst;
  bool dummy;
};

/// Splits an h-regular (h even) bipartite multigraph into two (h/2)-regular
/// halves by 2-coloring edges alternately along Eulerian circuits.
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> euler_split(
    const std::vector<Edge>& edges, const std::vector<std::uint32_t>& subset,
    std::uint32_t num_nodes) {
  // Bipartite vertices: sources 0..n-1, destinations n..2n-1.  The incidence
  // lists live in one flat CSR array (same per-vertex order as repeated
  // push_backs would give) so a split allocates three arrays, not 2n lists.
  const std::uint32_t total_vertices = 2 * num_nodes;
  std::vector<std::uint32_t> off(total_vertices + 1, 0);
  for (const std::uint32_t e : subset) {
    ++off[edges[e].src + 1];
    ++off[edges[e].dst + num_nodes + 1];
  }
  for (std::uint32_t v = 0; v < total_vertices; ++v) off[v + 1] += off[v];
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inc(2 * subset.size());
  {
    std::vector<std::uint32_t> fill(off.begin(), off.end() - 1);
    for (const std::uint32_t e : subset) {
      inc[fill[edges[e].src]++] = {edges[e].dst + num_nodes, e};
      inc[fill[edges[e].dst + num_nodes]++] = {edges[e].src, e};
    }
  }
  std::vector<char> used(edges.size(), 0);
  std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
  std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> halves;
  halves.first.reserve(subset.size() / 2);
  halves.second.reserve(subset.size() / 2);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  std::vector<std::uint32_t> circuit;
  for (std::uint32_t start = 0; start < total_vertices; ++start) {
    while (cursor[start] < off[start + 1]) {
      if (used[inc[cursor[start]].second]) {
        ++cursor[start];
        continue;
      }
      // Hierholzer: trace one circuit from `start`, collecting edge ids.
      stack.assign(1, {start, 0});
      circuit.clear();
      while (!stack.empty()) {
        const std::uint32_t v = stack.back().first;
        while (cursor[v] < off[v + 1] && used[inc[cursor[v]].second]) ++cursor[v];
        if (cursor[v] == off[v + 1]) {
          if (stack.back().second != 0) circuit.push_back(stack.back().second - 1);
          stack.pop_back();
        } else {
          const auto [next, edge_id] = inc[cursor[v]];
          used[edge_id] = 1;
          stack.push_back({next, edge_id + 1});
        }
      }
      // Alternate colors along the circuit.  Bipartite circuits have even
      // length, so the split is exact at every vertex.
      for (std::size_t i = 0; i < circuit.size(); ++i) {
        (i % 2 == 0 ? halves.first : halves.second).push_back(circuit[i]);
      }
    }
  }
  if (halves.first.size() != halves.second.size()) {
    throw std::logic_error{"euler_split: halves differ in size"};
  }
  return halves;
}

/// Peels one perfect matching (as edge ids) from an h-regular multigraph.
std::vector<std::uint32_t> peel_matching(const std::vector<Edge>& edges,
                                         std::vector<std::uint32_t>& subset,
                                         std::uint32_t num_nodes) {
  BipartiteGraph bipartite{num_nodes, num_nodes};
  for (const std::uint32_t e : subset) bipartite.add_edge(edges[e].src, edges[e].dst);
  const MatchingResult matching = hopcroft_karp(bipartite);
  if (matching.size != num_nodes) {
    // Koenig's theorem guarantees a perfect matching in a regular bipartite
    // multigraph; failure means the input was not regular.
    throw std::logic_error{"peel_matching: no perfect matching (input not regular?)"};
  }
  // Select one concrete edge instance per matched pair.
  std::vector<std::uint32_t> matched;
  matched.reserve(num_nodes);
  std::vector<char> satisfied(num_nodes, 0);
  std::vector<std::uint32_t> rest;
  rest.reserve(subset.size() - num_nodes);
  for (const std::uint32_t e : subset) {
    const std::uint32_t l = edges[e].src;
    if (!satisfied[l] && matching.match_left[l] == edges[e].dst) {
      satisfied[l] = 1;
      matched.push_back(e);
    } else {
      rest.push_back(e);
    }
  }
  subset = std::move(rest);
  return matched;
}

void decompose_recursive(const std::vector<Edge>& edges, std::vector<std::uint32_t> subset,
                         std::uint32_t h, std::uint32_t num_nodes,
                         std::vector<std::vector<std::uint32_t>>& rounds) {
  if (subset.empty() || h == 0) return;
  if (h == 1) {
    rounds.push_back(std::move(subset));
    return;
  }
  if (h % 2 == 1) {
    rounds.push_back(peel_matching(edges, subset, num_nodes));
    decompose_recursive(edges, std::move(subset), h - 1, num_nodes, rounds);
    return;
  }
  auto [first, second] = euler_split(edges, subset, num_nodes);
  decompose_recursive(edges, std::move(first), h / 2, num_nodes, rounds);
  decompose_recursive(edges, std::move(second), h / 2, num_nodes, rounds);
}

}  // namespace

std::vector<PermutationRound> decompose_into_permutations(const HhProblem& problem) {
  const std::uint32_t n = problem.num_nodes();
  const std::uint32_t h = problem.h();
  if (h == 0) return {};

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(h) * n);
  std::vector<std::uint32_t> out_deg(n, 0), in_deg(n, 0);
  for (const Demand& d : problem.demands()) {
    edges.push_back(Edge{d.src, d.dst, /*dummy=*/false});
    ++out_deg[d.src];
    ++in_deg[d.dst];
  }
  // Pad to exactly h-regular with dummy demands.
  std::uint32_t src_cursor = 0, dst_cursor = 0;
  while (true) {
    while (src_cursor < n && out_deg[src_cursor] == h) ++src_cursor;
    while (dst_cursor < n && in_deg[dst_cursor] == h) ++dst_cursor;
    if (src_cursor == n || dst_cursor == n) break;
    edges.push_back(Edge{src_cursor, dst_cursor, /*dummy=*/true});
    ++out_deg[src_cursor];
    ++in_deg[dst_cursor];
  }

  std::vector<std::uint32_t> all(edges.size());
  for (std::uint32_t e = 0; e < edges.size(); ++e) all[e] = e;
  std::vector<std::vector<std::uint32_t>> raw_rounds;
  decompose_recursive(edges, std::move(all), h, n, raw_rounds);

  std::vector<PermutationRound> rounds;
  rounds.reserve(raw_rounds.size());
  for (const auto& raw : raw_rounds) {
    PermutationRound round;
    for (const std::uint32_t e : raw) {
      if (!edges[e].dummy) round.push_back(Demand{edges[e].src, edges[e].dst});
    }
    if (!round.empty()) rounds.push_back(std::move(round));
  }
  return rounds;
}

}  // namespace upn
