// h-h routing problems (Section 2).
//
// "Let each processor of G hold at most h packets each with a desired
// destination address... Let each processor be the destination of at most h
// packets."  route_G(h) is the time to solve any such instance; Theorem 2.1
// reduces universal simulation to h-h routing with h = ceil(n/m).
#pragma once

#include <cstdint>
#include <vector>

#include "src/topology/graph.hpp"
#include "src/util/rng.hpp"

namespace upn {

/// One routing demand: deliver a packet from `src` to `dst`.
struct Demand {
  NodeId src = 0;
  NodeId dst = 0;
};

/// A multiset of demands over `num_nodes` processors.
class HhProblem {
 public:
  explicit HhProblem(std::uint32_t num_nodes) : num_nodes_(num_nodes) {}

  void add(NodeId src, NodeId dst);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] const std::vector<Demand>& demands() const noexcept { return demands_; }
  [[nodiscard]] std::size_t size() const noexcept { return demands_.size(); }

  /// The h of this instance: max over nodes of max(#sourced, #received).
  [[nodiscard]] std::uint32_t h() const;

 private:
  std::uint32_t num_nodes_;
  std::vector<Demand> demands_;
};

/// A uniformly random (partial) permutation instance: every node sources
/// exactly one packet with distinct destinations (h = 1).
[[nodiscard]] HhProblem random_permutation_problem(std::uint32_t num_nodes, Rng& rng);

/// A random h-relation: each node sources exactly h packets; destinations
/// chosen as h random permutations, so each node also receives exactly h.
[[nodiscard]] HhProblem random_h_relation(std::uint32_t num_nodes, std::uint32_t h, Rng& rng);

/// The communication relation of one guest step under an embedding:
/// for each guest edge {u, v} with f(u) != f(v), demands f(u)->f(v) and
/// f(v)->f(u).  This is the h-h instance of Theorem 2.1's proof.
[[nodiscard]] HhProblem guest_step_relation(const Graph& guest,
                                            const std::vector<NodeId>& embedding,
                                            std::uint32_t host_nodes);

}  // namespace upn
