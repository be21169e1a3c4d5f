// A transfer sink for tests: keeps every router step a route streams, so a
// test can read a route's hops after the call.  The routers keep no hop log
// of their own (TransferSink in src/routing/router.hpp).
#pragma once

#include <vector>

#include "src/routing/router.hpp"

namespace upn::testing {

class HopRecorder {
 public:
  /// A sink that appends each router step it is handed to this recorder,
  /// which must outlive the routing call.
  [[nodiscard]] TransferSink sink();

  /// One entry per streamed router step, in step order, empty steps
  /// included.
  [[nodiscard]] const std::vector<std::vector<Transfer>>& steps() const noexcept {
    return steps_;
  }

  /// Every streamed hop, in stream order.
  [[nodiscard]] std::vector<Transfer> hops() const;

 private:
  std::vector<std::vector<Transfer>> steps_;
};

}  // namespace upn::testing
