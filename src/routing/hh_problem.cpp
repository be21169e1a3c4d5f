#include "src/routing/hh_problem.hpp"

#include <algorithm>
#include <stdexcept>

namespace upn {

void HhProblem::add(NodeId src, NodeId dst) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    throw std::out_of_range{"HhProblem::add: node id out of range"};
  }
  demands_.push_back(Demand{src, dst});
}

std::uint32_t HhProblem::h() const {
  std::vector<std::uint32_t> out(num_nodes_, 0), in(num_nodes_, 0);
  for (const Demand& d : demands_) {
    ++out[d.src];
    ++in[d.dst];
  }
  std::uint32_t h = 0;
  for (std::uint32_t v = 0; v < num_nodes_; ++v) {
    h = std::max({h, out[v], in[v]});
  }
  return h;
}

HhProblem random_permutation_problem(std::uint32_t num_nodes, Rng& rng) {
  HhProblem problem{num_nodes};
  const auto perm = rng.permutation(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) problem.add(v, perm[v]);
  return problem;
}

HhProblem random_h_relation(std::uint32_t num_nodes, std::uint32_t h, Rng& rng) {
  HhProblem problem{num_nodes};
  for (std::uint32_t round = 0; round < h; ++round) {
    const auto perm = rng.permutation(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) problem.add(v, perm[v]);
  }
  return problem;
}

HhProblem guest_step_relation(const Graph& guest, const std::vector<NodeId>& embedding,
                              std::uint32_t host_nodes) {
  if (embedding.size() != guest.num_nodes()) {
    throw std::invalid_argument{"guest_step_relation: embedding size mismatch"};
  }
  HhProblem problem{host_nodes};
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    for (const NodeId v : guest.neighbors(u)) {
      if (embedding[u] != embedding[v]) problem.add(embedding[u], embedding[v]);
    }
  }
  return problem;
}

}  // namespace upn
