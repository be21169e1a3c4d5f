#include "tests/support/hop_recorder.hpp"

namespace upn::testing {

TransferSink HopRecorder::sink() {
  return [this](std::span<const Transfer> hops) { steps_.emplace_back(hops.begin(), hops.end()); };
}

std::vector<Transfer> HopRecorder::hops() const {
  std::vector<Transfer> all;
  for (const std::vector<Transfer>& step : steps_) all.insert(all.end(), step.begin(), step.end());
  return all;
}

}  // namespace upn::testing
