// UniversalSimulator's emitted protocol against a step-by-step reference.
//
// With the route memo, guest steps 2..T replay guest step 1's route, which
// streams no transfers, and the simulator appends guest step 1's block of
// host steps again with every pebble time raised (Protocol::repeat_steps)
// instead of emitting it op by op.  The reference here routes every guest
// step on a fresh SyncRouter, so no route is ever replayed, and emits each
// one through the emit_route_ops sink and emit_generate_rounds.  Both protocols must agree step by step and op by
// op (each stored word is a one-to-one encoding of the op read back), and
// both must validate.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/core/universal_sim.hpp"
#include "src/obs/obs.hpp"
#include "src/pebble/validator.hpp"
#include "src/routing/policies.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"

namespace upn {
namespace {

/// The protocol of T guest steps, each routed on a router that has never
/// routed before and emitted op by op.
Protocol reference_protocol(const Graph& guest, const Graph& host,
                            const std::vector<NodeId>& embedding, std::uint32_t guest_steps,
                            std::uint64_t seed, RoutingPolicy& policy) {
  Protocol protocol{guest.num_nodes(), host.num_nodes(), guest_steps};
  const std::vector<std::vector<NodeId>> guests_of =
      invert_embedding(embedding, host.num_nodes());
  GuestStepKernel kernel{guest, embedding, seed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    SyncRouter router{host, PortModel::kSinglePort};
    const StepPayloads step = kernel.step_payloads();
    std::vector<NodeId> senders;
    for (const GuestDemand& d : step.demands) senders.push_back(d.sender);
    const RouteResult routed =
        route_demands(router, policy, emit_route_ops(protocol, senders, t - 1), step, deliver);
    EXPECT_FALSE(routed.replayed);
    kernel.compute_lossless("reference_protocol");
    emit_generate_rounds(&protocol, guests_of, t);
  }
  EXPECT_TRUE(kernel.configs_match());
  return protocol;
}

std::string describe(const Op& op) {
  return "kind " + std::to_string(static_cast<int>(op.kind)) + " proc " +
         std::to_string(op.proc) + " pebble (" + std::to_string(op.pebble.node) + ", " +
         std::to_string(op.pebble.time) + ") partner " + std::to_string(op.partner);
}

/// "" when both protocols have the same header, step sizes and ops; else
/// the first difference.
std::string first_difference(const Protocol& got, const Protocol& want) {
  if (got.num_guests() != want.num_guests() || got.num_hosts() != want.num_hosts() ||
      got.guest_steps() != want.guest_steps()) {
    return "headers differ";
  }
  if (got.host_steps() != want.host_steps()) {
    return "host steps " + std::to_string(got.host_steps()) + " vs " +
           std::to_string(want.host_steps());
  }
  for (std::uint32_t s = 0; s < want.host_steps(); ++s) {
    const OpView a = got.step(s), b = want.step(s);
    if (a.size() != b.size()) {
      return "step " + std::to_string(s) + " has " + std::to_string(a.size()) + " ops, want " +
             std::to_string(b.size());
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      const Op x = a[k], y = b[k];
      if (x.kind != y.kind || x.proc != y.proc || x.pebble != y.pebble ||
          x.partner != y.partner) {
        return "step " + std::to_string(s) + " op " + std::to_string(k) + ": " + describe(x) +
               ", want " + describe(y);
      }
    }
  }
  return "";
}

/// Sends every packet around a cycle host: one way on odd route calls and
/// the other way on even ones.  Between antipodal hosts both ways take
/// equally many router steps over different links, and the route memo
/// never replays the route (the policy is not a GreedyPolicy).
class AlternatingCyclePolicy final : public RoutingPolicy {
 public:
  void prepare(const Graph& /*graph*/, std::vector<Packet>& /*packets*/) override { ++calls_; }
  [[nodiscard]] NodeId next_hop(const Graph& graph, NodeId at, const Packet& /*packet*/) override {
    const NodeId n = graph.num_nodes();
    return calls_ % 2 == 1 ? (at + 1) % n : (at + n - 1) % n;
  }
  [[nodiscard]] std::string name() const override { return "alternating-cycle"; }

 private:
  std::uint64_t calls_ = 0;
};

struct Case {
  std::string name;
  Graph guest;
  Graph host;
  std::vector<NodeId> embedding;
};

/// Random regular guests on butterflies, with random, block and one-host
/// embeddings.  The one-host case routes nothing: every guest step is its
/// generate rounds alone.
std::vector<Case> cases() {
  std::vector<Case> all;
  auto random_case = [&all](std::uint32_t n, std::uint32_t degree, std::uint32_t dimension,
                            std::uint64_t seed) {
    Rng rng{seed};
    Graph guest = make_random_regular(n, degree, rng);
    Graph host = make_butterfly(dimension);
    std::vector<NodeId> embedding = make_random_embedding(n, host.num_nodes(), rng);
    all.push_back(Case{"n=" + std::to_string(n) + " d=" + std::to_string(degree) +
                           " butterfly(" + std::to_string(dimension) + ") seed " +
                           std::to_string(seed),
                       std::move(guest), std::move(host), std::move(embedding)});
  };
  random_case(144, 8, 2, 7);  // the toy pipeline's size
  random_case(48, 8, 2, 1000);
  random_case(96, 4, 3, 33);
  random_case(200, 6, 3, 5);
  random_case(512, 8, 4, 11);
  {
    Rng rng{99};
    Graph guest = make_random_regular(16, 4, rng);
    Graph host = make_butterfly(2);
    all.push_back(Case{"n=16 block embedding", std::move(guest), host,
                       make_block_embedding(16, host.num_nodes())});
  }
  {
    Rng rng{3};
    Graph guest = make_random_regular(12, 4, rng);
    all.push_back(Case{"n=12 on one host", std::move(guest), make_butterfly(2),
                       std::vector<NodeId>(12, 0)});
  }
  return all;
}

class EmissionDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().reset();
  }
  void TearDown() override { obs::set_enabled(false); }

  static std::uint64_t memo_hits() {
    return obs::registry().counter("routing.sync.memo_hits").value();
  }
};

TEST_F(EmissionDifferential, SimulatorProtocolEqualsFreshRouterEmission) {
  for (const Case& c : cases()) {
    for (const std::uint32_t T : {1u, 2u, 16u}) {
      SCOPED_TRACE(c.name + " T=" + std::to_string(T));
      UniversalSimulator sim{c.guest, c.host, c.embedding};
      UniversalSimOptions options;
      options.emit_protocol = true;
      options.seed = 555;
      const std::uint64_t hits_before = memo_hits();
      const UniversalSimResult result = sim.run(T, options);
      const std::uint64_t hits = memo_hits() - hits_before;
      ASSERT_TRUE(result.configs_match);
      ASSERT_TRUE(result.protocol.has_value());
      // Every guest step after the first replays the first one's route
      // (the one-host case routes nothing and so never reaches the router).
      EXPECT_EQ(hits, result.packets_routed == 0 ? 0u : T - 1);

      GreedyPolicy policy{c.host};
      const Protocol want = reference_protocol(c.guest, c.host, c.embedding, T, 555, policy);
      EXPECT_EQ(first_difference(*result.protocol, want), "");
      EXPECT_EQ(result.protocol->host_steps(), result.host_steps);

      const ValidationResult validation = validate_protocol(*result.protocol, c.guest, c.host);
      EXPECT_TRUE(validation.ok) << validation.error;
    }
  }
}

TEST_F(EmissionDifferential, NonMemoizablePolicyEmitsEveryGuestStepInFull) {
  // Valiant routing draws fresh intermediates every guest step, so no
  // route repeats: the router never replays and every guest step takes the
  // full emission path.
  for (const Case& c : cases()) {
    if (c.name.find("one host") != std::string::npos) continue;
    SCOPED_TRACE(c.name);
    UniversalSimulator sim{c.guest, c.host, c.embedding};
    ValiantPolicy valiant{c.host, 42};
    UniversalSimOptions options;
    options.emit_protocol = true;
    options.policy = &valiant;
    const std::uint64_t hits_before = memo_hits();
    const UniversalSimResult result = sim.run(16, options);
    EXPECT_EQ(memo_hits() - hits_before, 0u);
    ASSERT_TRUE(result.configs_match);

    const ValidationResult validation = validate_protocol(*result.protocol, c.guest, c.host);
    EXPECT_TRUE(validation.ok) << validation.error;

    ValiantPolicy reference_valiant{c.host, 42};
    const Protocol want =
        reference_protocol(c.guest, c.host, c.embedding, 16, options.seed, reference_valiant);
    EXPECT_EQ(first_difference(*result.protocol, want), "");
  }
}

TEST_F(EmissionDifferential, RouteOfEqualLengthOverOtherLinksIsEmittedInFull) {
  // Guest step t routes the edge's two packets around the 4-cycle the
  // other way from guest step t - 1, in as many router steps: only the
  // streamed transfers tell the routes apart.
  const Graph guest = make_path(2);
  const Graph host = make_cycle(4);
  const std::vector<NodeId> embedding{0, 2};
  UniversalSimulator sim{guest, host, embedding};
  AlternatingCyclePolicy policy;
  UniversalSimOptions options;
  options.emit_protocol = true;
  options.policy = &policy;
  const UniversalSimResult result = sim.run(4, options);
  ASSERT_TRUE(result.configs_match);
  EXPECT_EQ(result.comm_steps, 4 * 2u);

  AlternatingCyclePolicy reference_policy;
  const Protocol want =
      reference_protocol(guest, host, embedding, 4, options.seed, reference_policy);
  EXPECT_EQ(first_difference(*result.protocol, want), "");
  EXPECT_NE(want.step(0)[0].partner, want.step(3)[0].partner);
  const ValidationResult validation = validate_protocol(*result.protocol, guest, host);
  EXPECT_TRUE(validation.ok) << validation.error;
}

}  // namespace
}  // namespace upn
