#include "tests/support/fault_oracles.hpp"

#include <algorithm>

namespace upn {

std::vector<std::uint32_t> epochs(const FaultPlan& plan) {
  std::vector<std::uint32_t> steps;
  for (const LinkFault& f : plan.link_faults()) steps.push_back(f.step);
  for (const NodeFault& f : plan.node_faults()) steps.push_back(f.step);
  for (const LinkRepair& r : plan.link_repairs()) steps.push_back(r.step);
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

}  // namespace upn
