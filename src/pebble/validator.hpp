// Strict replay validation of simulation protocols against the rules of
// Section 3.1.  A protocol that validates is, by construction, a legal
// simulation in the paper's model -- the universal simulator's output is
// checked here rather than trusted.
#pragma once

#include <cstdint>
#include <string>

#include "src/pebble/protocol.hpp"
#include "src/topology/graph.hpp"

namespace upn {

struct ValidationResult {
  bool ok = false;
  std::string error;        ///< empty when ok
  std::uint64_t pebbles_generated = 0;
  std::uint64_t pebbles_sent = 0;
  std::uint64_t pebbles_received = 0;

  explicit operator bool() const noexcept { return ok; }
};

/// Replays `protocol` against the guest and host topologies.  Checks, per
/// host step and processor:
///   * at most one operation (checked here only: Protocol stores a step
///     in which a processor acts twice);
///   * GENERATE (P_i, t): 1 <= t <= T and the processor holds (P_i, t-1)
///     and (P_j, t-1) for every guest neighbor j of i;
///   * SEND: the pebble is held and the partner is a host neighbor;
///   * RECEIVE: mirrored by a SEND of the same pebble from the partner in
///     the same step, and the partner is a host neighbor;
///   * termination: every final pebble (P_i, T) was generated somewhere.
[[nodiscard]] ValidationResult validate_protocol(const Protocol& protocol, const Graph& guest,
                                                 const Graph& host);

}  // namespace upn
