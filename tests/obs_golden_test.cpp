// Golden snapshot regression for one butterfly universal simulation: the
// full deterministic metric snapshot of a fixed seeded run, rendered as
// text, pinned byte-for-byte.  Any change to instrumentation placement,
// metric naming, counter semantics, or exporter formatting shows up here as
// a readable diff.  This binary holds exactly one test so no other
// workload can register extra metrics into the process-wide registry.
#include <gtest/gtest.h>

#include <string>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/obs/obs.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn {
namespace {

// Regenerate after an intentional instrumentation change by running this
// test and copying the "actual" block from the failure message.
const char* const kGoldenSnapshot =
    R"(counter   pebble.validator.generates      72
counter   pebble.validator.receives       672
counter   pebble.validator.sends          672
counter   pebble.validator.validations    1
gauge     routing.sync.max_queue_depth    value=0 max=16
counter   routing.sync.memo_hits          2
counter   routing.sync.packets_lost       0
counter   routing.sync.packets_submitted  288
counter   routing.sync.reroutes           0
counter   routing.sync.retransmissions    0
counter   routing.sync.route_calls        3
histogram routing.sync.step_max_queue     count=189 sum=1923 [0:3 1:3 2:9 3:18 4:153 5:3]
counter   routing.sync.steps              189
counter   routing.sync.transfers          672
counter   sim.universal.comm_steps        189
counter   sim.universal.compute_steps     6
gauge     sim.universal.embedding_load    value=0 max=2
counter   sim.universal.packets_routed    288
counter   sim.universal.runs              1
)";

TEST(ObsGolden, ButterflySimulationSnapshotIsPinned) {
  obs::set_enabled(true);
  obs::registry().reset();

  Rng rng{11};
  const Graph guest = make_random_regular(24, 4, rng);
  const Graph host = make_butterfly(2);  // m = 12
  UniversalSimulator sim{guest, host, make_random_embedding(24, 12, rng)};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(3, options);
  ASSERT_TRUE(result.configs_match);
  ASSERT_TRUE(result.protocol.has_value());
  const ValidationResult validation = validate_protocol(*result.protocol, guest, host);
  ASSERT_TRUE(validation.ok) << validation.error;

  const std::string actual =
      obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic));
  EXPECT_EQ(actual, kGoldenSnapshot)
      << "deterministic snapshot drifted; if intentional, update kGoldenSnapshot to:\n"
      << actual;
}

}  // namespace
}  // namespace upn
