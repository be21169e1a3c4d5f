#include "src/compute/machine.hpp"

#include "src/util/rng.hpp"

namespace upn {

Config next_config(Config own, std::span<const Config> neighbor_configs) noexcept {
  std::uint64_t h = mix64(own ^ 0xa5a5a5a5a5a5a5a5ULL);
  std::uint64_t position = 1;
  for (const Config c : neighbor_configs) {
    h = mix64(h ^ (c + position * 0x9e3779b97f4a7c15ULL));
    ++position;
  }
  return h;
}

Config initial_config(std::uint64_t seed, NodeId node) noexcept {
  return mix64(seed ^ (static_cast<std::uint64_t>(node) + 0x0123456789abcdefULL));
}

SyncMachine::SyncMachine(const Graph& graph, std::uint64_t seed) : graph_(&graph) {
  configs_.resize(graph.num_nodes());
  scratch_.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) configs_[v] = initial_config(seed, v);
}

void SyncMachine::step() {
  std::vector<Config> neighbor_configs;
  neighbor_configs.reserve(graph_->max_degree());
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    neighbor_configs.clear();
    for (const NodeId u : graph_->neighbors(v)) neighbor_configs.push_back(configs_[u]);
    scratch_[v] = next_config(configs_[v], neighbor_configs);
  }
  configs_.swap(scratch_);
  ++time_;
}

void SyncMachine::run(std::uint32_t steps) {
  for (std::uint32_t i = 0; i < steps; ++i) step();
}

std::vector<Config> run_reference(const Graph& graph, std::uint64_t seed, std::uint32_t steps) {
  SyncMachine machine{graph, seed};
  machine.run(steps);
  return machine.configs();
}

}  // namespace upn
