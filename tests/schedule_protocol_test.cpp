// Off-line schedule -> validated single-port pebble protocol.
#include <gtest/gtest.h>

#include "src/core/embedding.hpp"
#include "src/core/schedule_protocol.hpp"
#include "src/pebble/metrics.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(ScheduleProtocol, OfflineProtocolValidates) {
  Rng rng{21};
  const std::uint32_t d = 3;
  const Graph host = make_butterfly(d);
  const std::uint32_t n = 2 * host.num_nodes();
  const Graph guest = make_random_regular(n, 8, rng);
  const auto embedding = make_random_embedding(n, host.num_nodes(), rng);
  const OfflineProtocolResult result =
      make_offline_universal_protocol(guest, d, embedding, 3);
  const ValidationResult validation = validate_protocol(result.protocol, guest, host);
  EXPECT_TRUE(validation.ok) << validation.error;
  EXPECT_EQ(result.protocol.guest_steps(), 3u);
  // Coloring expands the schedule by a small constant (Koenig: <= 4;
  // greedy: <= 7).
  EXPECT_GE(result.expansion_factor, 1.0);
  EXPECT_LE(result.expansion_factor, 7.0);
  EXPECT_GT(result.single_port_steps_per_guest_step,
            result.multiport_steps_per_guest_step);
}

TEST(ScheduleProtocol, ProtocolStepsMatchAnnouncedCounts) {
  Rng rng{22};
  const std::uint32_t d = 2;
  const Graph host = make_butterfly(d);
  const Graph guest = make_torus(6, 6);
  const auto embedding = make_random_embedding(36, host.num_nodes(), rng);
  const std::uint32_t T = 4;
  const OfflineProtocolResult result =
      make_offline_universal_protocol(guest, d, embedding, T);
  EXPECT_EQ(result.protocol.host_steps(), T * result.single_port_steps_per_guest_step);
}

TEST(ScheduleProtocol, MetricsSeeEveryGuestLevel) {
  Rng rng{23};
  const std::uint32_t d = 2;
  const Graph host = make_butterfly(d);
  const std::uint32_t n = 24;
  const Graph guest = make_random_regular(n, 6, rng);
  const auto embedding = make_random_embedding(n, host.num_nodes(), rng);
  const OfflineProtocolResult result =
      make_offline_universal_protocol(guest, d, embedding, 3);
  const ProtocolMetrics metrics{result.protocol};
  for (std::uint32_t t = 1; t <= 3; ++t) {
    for (NodeId i = 0; i < n; ++i) {
      EXPECT_GE(metrics.weight(i, t), 1u) << "pebble (" << i << "," << t << ")";
    }
  }
}

TEST(ScheduleProtocol, SinglePortStepsAreMatchings) {
  Rng rng{24};
  const std::uint32_t d = 2;
  const Graph host = make_butterfly(d);
  const std::uint32_t n = 24;
  const Graph guest = make_random_regular(n, 6, rng);
  const auto embedding = make_random_embedding(n, host.num_nodes(), rng);
  const OfflineProtocolResult result =
      make_offline_universal_protocol(guest, d, embedding, 2);
  // The validator checks one op per processor; spot-check that sends and
  // receives pair up inside steps.
  for (std::uint32_t s = 0; s < result.protocol.host_steps(); ++s) {
    std::size_t sends = 0, receives = 0;
    for (const Op& op : result.protocol.step(s)) {
      sends += op.kind == OpKind::kSend;
      receives += op.kind == OpKind::kReceive;
    }
    EXPECT_EQ(sends, receives);
  }
}

TEST(ScheduleProtocol, RejectsBadEmbedding) {
  const Graph guest = make_torus(4, 4);
  EXPECT_THROW(
      (void)make_offline_universal_protocol(guest, 2, std::vector<NodeId>(3, 0), 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace upn
