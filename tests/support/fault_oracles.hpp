// Fault-plan summaries only tests use.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.hpp"

namespace upn {

/// Host steps at which the plan's permanent faults or repairs activate,
/// ascending and unique.
[[nodiscard]] std::vector<std::uint32_t> epochs(const FaultPlan& plan);

}  // namespace upn
