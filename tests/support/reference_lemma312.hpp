// The tree-per-root Lemma 3.12 verifier, preserved as the differential-
// testing oracle for verify_lemma312 (src/lowerbound/lemma_verify.cpp).
//
// It builds one dependency tree per (block, candidate root) with
// build_block_dependency_tree, keeps all n of them, and reads every tree
// weight through ProtocolMetrics::weight, once for the averaging pass and
// again for the Z selection.  It must never be "optimized": its value is
// that it follows the proof's selection the slow, obviously-correct way.
// tests/lemma312_differential_test.cpp asserts that every Lemma312Report
// field is equal on both, doubles bit for bit.
#pragma once

#include "src/lowerbound/lemma_verify.hpp"
#include "src/pebble/metrics.hpp"
#include "src/topology/g0.hpp"

namespace upn::testing {

/// Reference semantics of verify_lemma312.
[[nodiscard]] Lemma312Report reference_verify_lemma312(const ProtocolMetrics& metrics,
                                                       const G0& g0);

}  // namespace upn::testing
