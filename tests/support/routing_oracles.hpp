// Routing checks only tests use: the Benes path validator, the
// partial-permutation check on decomposed rounds, and the canonical
// timing-free delivery verdict the online suites byte-compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/routing/benes.hpp"
#include "src/routing/decompose.hpp"
#include "src/routing/router.hpp"

namespace upn {

/// True iff the paths are level-wise node-disjoint, use only legal bit
/// flips, and realize the permutation.
[[nodiscard]] bool validate_benes_paths(const BenesPaths& paths,
                                        const std::vector<std::uint32_t>& perm);

/// True iff the round has no repeated source and no repeated destination.
[[nodiscard]] bool is_partial_permutation(const PermutationRound& round,
                                          std::uint32_t num_nodes);

/// Canonical timing-free delivery verdict: one `<id> <src>-><dst> ok|lost`
/// line per packet, sorted by id.  The zero-churn differential test
/// byte-compares this between the online and offline routers.
[[nodiscard]] std::string delivery_verdicts(const std::vector<Packet>& packets);

}  // namespace upn
