// The synchronous network computation model.
//
// Section 1 of the paper: processors P_1..P_n joined by a communication graph
// compute in lock-step; in one step every processor reads the configurations
// of its neighbors and moves to its next configuration.  (The pebble-game
// model of Section 3.1 charges exactly one host step per configuration
// transfer and one per next-configuration computation, matching this.)
//
// SyncMachine executes such a computation directly on the guest network and
// is the ground truth for every simulation in src/core/: a correct universal
// simulation must reproduce the exact same configurations.  Configurations
// are 64-bit values evolved by a fixed avalanche mixing function, so any
// simulation bug (wrong neighbor, stale round, dropped message) changes the
// final configurations with overwhelming probability.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// One processor's configuration at one time step.
using Config = std::uint64_t;

/// The deterministic next-configuration function delta(own, neighbors).
/// `neighbor_configs` must be ordered by ascending neighbor node id; the
/// position-dependent mixing makes the function injective-ish in each input.
[[nodiscard]] Config next_config(Config own, std::span<const Config> neighbor_configs) noexcept;

/// The initial configuration of processor `node` under a seed.
[[nodiscard]] Config initial_config(std::uint64_t seed, NodeId node) noexcept;

/// Lock-step executor over a guest graph.
class SyncMachine {
 public:
  /// The graph must outlive the machine.
  SyncMachine(const Graph& graph, std::uint64_t seed);

  /// Advances all processors by one synchronous step.
  void step();

  /// Advances by `steps` synchronous steps.
  void run(std::uint32_t steps);

  [[nodiscard]] std::uint32_t time() const noexcept { return time_; }
  [[nodiscard]] Config config(NodeId node) const noexcept { return configs_[node]; }
  [[nodiscard]] const std::vector<Config>& configs() const noexcept { return configs_; }

 private:
  const Graph* graph_;
  std::vector<Config> configs_;
  std::vector<Config> scratch_;
  std::uint32_t time_ = 0;
};

/// Convenience: run `steps` steps from `seed` and return the final configs.
[[nodiscard]] std::vector<Config> run_reference(const Graph& graph, std::uint64_t seed,
                                                std::uint32_t steps);

}  // namespace upn
