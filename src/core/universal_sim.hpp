// The universal simulator: Theorem 2.1 made executable.
//
// "Let f map the nodes of G to the nodes of M such that each node of M gets
// at most ceil(n/m) nodes of G.  The simulation is step by step.  Q simulates
// the internal computations of its guests sequentially.  If a processor P of
// G wants to communicate with its neighbor P', the processor Q = f(P)
// generates a packet with destination f(P').  The desired communication
// forms a ceil(n/m)-ceil(n/m) routing problem."
//
// Each guest step routes one packet per directed guest edge crossing hosts
// through the synchronous router (single-port by default, so the emitted
// protocol obeys the pebble game's one-operation-per-step rule), then every
// host computes its guests sequentially (core/guest_step.hpp).
//
// The simulator optionally emits the full Section 3.1 pebble protocol
// (validated by pebble/validator.hpp) and always checks the resulting
// configurations against the direct SyncMachine execution, so correctness
// is observed, not assumed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/compute/machine.hpp"
#include "src/pebble/protocol.hpp"
#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct UniversalSimOptions {
  /// Routing policy; nullptr = the simulator's internal GreedyPolicy (built
  /// lazily on first use and reused across runs, so its BFS tables amortize).
  RoutingPolicy* policy = nullptr;
  PortModel port_model = PortModel::kSinglePort;
  bool emit_protocol = false;
  std::uint64_t seed = 0x5eed;  ///< initial guest configurations
};

struct UniversalSimResult {
  std::uint32_t guest_steps = 0;   ///< T
  std::uint32_t host_steps = 0;    ///< T'
  std::uint32_t comm_steps = 0;    ///< host steps spent routing
  std::uint32_t compute_steps = 0; ///< host steps spent generating
  std::uint32_t load = 0;          ///< max guests per host
  std::uint64_t packets_routed = 0;
  double slowdown = 0.0;           ///< s = T'/T
  double inefficiency = 0.0;       ///< k = s m / n
  bool configs_match = false;      ///< vs the direct guest execution
  std::optional<Protocol> protocol;
};

class GreedyPolicy;

class UniversalSimulator {
 public:
  /// `embedding[u]` = host processor simulating guest u.  Graphs must
  /// outlive the simulator.
  UniversalSimulator(const Graph& guest, const Graph& host, std::vector<NodeId> embedding);
  ~UniversalSimulator();

  /// Simulates T guest steps.
  [[nodiscard]] UniversalSimResult run(std::uint32_t guest_steps,
                                       const UniversalSimOptions& options = {});

  [[nodiscard]] const std::vector<NodeId>& embedding() const noexcept { return embedding_; }

 private:
  const Graph* guest_;
  const Graph* host_;
  std::vector<NodeId> embedding_;
  std::vector<std::vector<NodeId>> guests_of_;
  std::uint32_t load_;
  std::unique_ptr<GreedyPolicy> default_policy_;  ///< lazy, shared across runs
};

}  // namespace upn
