// The pre-rewrite pebble-protocol validator, preserved as the
// differential-testing oracle for the bitset validator
// (src/pebble/validator.cpp).
//
// Holdings are one std::unordered_set of pebble keys per host processor, and
// every receive is matched by scanning its whole step for the mirrored send.
// It lives in tests/ support code, outside the hot-path analysis ratchet, and
// must never be "optimized": its value is that it checks the Section 3.1
// rules the slow, obviously-correct way.  tests/validator_differential_test.cpp
// asserts that both validators return byte-identical ValidationResults.
#pragma once

#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/graph.hpp"

namespace upn::testing {

/// Reference semantics of validate_protocol.
[[nodiscard]] ValidationResult reference_validate_protocol(const Protocol& protocol,
                                                           const Graph& guest,
                                                           const Graph& host);

}  // namespace upn::testing
