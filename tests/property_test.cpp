// Property-based tests over the topology module: a seeded generator samples
// random instances from every builder family and checks the invariants each
// family declares -- degree bound, handshake lemma, connectivity where the
// construction guarantees it -- plus fault-surgery containment
// (surviving_subgraph is a subgraph of the original) and the .upnp round
// trip (write -> read -> write is byte-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/surgery.hpp"
#include "src/pebble/io.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/routing/router.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/ccc.hpp"
#include "src/topology/debruijn.hpp"
#include "src/topology/expander.hpp"
#include "src/topology/hypercube.hpp"
#include "src/topology/kautz.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/mesh_of_trees.hpp"
#include "src/topology/multitorus.hpp"
#include "src/topology/properties.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/shuffle_exchange.hpp"
#include "src/topology/torus.hpp"
#include "tests/support/hop_recorder.hpp"
#include "src/topology/torus3d.hpp"
#include "src/util/rng.hpp"
#include "tests/support/topology_oracles.hpp"

namespace upn {
namespace {

constexpr std::uint64_t kPropertySeed = 0x70726f70;

// One sampled instance: the graph plus the invariants its family declares.
struct Sample {
  Graph graph;
  std::uint32_t max_degree = 0;  ///< declared degree bound
  bool connected = true;         ///< family guarantees connectivity
};

// Draws one random instance of every family per round.  Sizes are sampled
// from the seeded rng so repeated CI runs explore the same instances and a
// failure names the (family, round) pair that produced it.
std::vector<std::pair<std::string, Sample>> sample_families(Rng& rng) {
  std::vector<std::pair<std::string, Sample>> samples;
  auto add = [&](const std::string& family, Graph g, std::uint32_t max_degree,
                 bool connected = true) {
    samples.emplace_back(family, Sample{std::move(g), max_degree, connected});
  };

  const auto u32 = [&](std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(rng.below(hi - lo + 1));
  };

  add("path", make_path(u32(2, 64)), 2);
  add("cycle", make_cycle(u32(3, 64)), 2);
  {
    const std::uint32_t n = u32(2, 24);
    add("complete", make_complete(n), n - 1);
  }
  add("complete_binary_tree", make_complete_binary_tree(u32(1, 8)), 3);
  add("butterfly", make_butterfly(u32(1, 5)), 4);
  add("wrapped_butterfly", make_wrapped_butterfly(u32(2, 5)), 4);
  add("cube_connected_cycles", make_cube_connected_cycles(u32(3, 6)), 3);
  add("debruijn", make_debruijn(u32(2, 9)), 4);
  {
    const std::uint32_t d = u32(2, 9);
    add("hypercube", make_hypercube(d), d);
  }
  add("kautz", make_kautz(u32(2, 8)), 4);
  add("shuffle_exchange", make_shuffle_exchange(u32(2, 9)), 3);
  add("mesh", make_mesh(u32(2, 12), u32(2, 12)), 4);
  {
    const std::uint32_t side = u32(2, 12);
    add("square_mesh", make_square_mesh(side * side), 4);
  }
  add("mesh_of_trees", make_mesh_of_trees(1u << u32(1, 4)), 3);
  add("torus", make_torus(u32(3, 12), u32(3, 12)), 4);
  {
    const std::uint32_t side = u32(3, 12);
    add("square_torus", make_square_torus(side * side), 4);
  }
  add("torus3d", make_torus3d(u32(3, 6), u32(3, 6), u32(3, 6)), 6);
  {
    // Multitorus side must be a positive multiple of the block side; block
    // wraparounds add at most one edge per dimension on block boundaries.
    const std::uint32_t a = u32(2, 4);
    const std::uint32_t side = a * u32(1, 4);
    add("multitorus", make_multitorus(side * side, a), 6);
  }
  {
    const std::uint32_t n = 2 * u32(8, 40);  // n*c even
    add("random_regular", make_random_regular(n, 3, rng), 3,
        /*connected=*/false);
  }
  {
    const std::uint32_t c = 2 * u32(1, 3);
    const std::uint32_t n = u32(2 * c + 2, 60);
    add("circulant", make_circulant(n, c), c);
  }
  {
    const std::uint32_t n = 2 * u32(16, 48);
    add("random_expander", make_random_expander(n, rng, 0.1), 4,
        /*connected=*/false);
  }
  add("margulis_expander", make_margulis_expander(u32(3, 10)), 8);
  return samples;
}

TEST(TopologyProperties, DegreeBoundHandshakeAndConnectivity) {
  Rng rng{kPropertySeed};
  for (int round = 0; round < 5; ++round) {
    for (const auto& [family, sample] : sample_families(rng)) {
      SCOPED_TRACE(family + " round " + std::to_string(round) + " (" +
                   sample.graph.name() + ")");
      const Graph& g = sample.graph;
      ASSERT_GT(g.num_nodes(), 0u);

      // Declared degree bound.
      EXPECT_LE(g.max_degree(), sample.max_degree);

      // Handshake lemma: degrees sum to twice the edge count.
      std::uint64_t degree_sum = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
      EXPECT_EQ(degree_sum, 2 * g.num_edges());

      // Adjacency is symmetric, sorted, self-loop-free.
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        NodeId previous = 0;
        bool first = true;
        for (const NodeId w : g.neighbors(v)) {
          EXPECT_NE(w, v);
          EXPECT_TRUE(g.has_edge(w, v));
          if (!first) {
            EXPECT_LT(previous, w);
          }
          previous = w;
          first = false;
        }
      }

      if (sample.connected) {
        EXPECT_TRUE(is_connected(g));
      }
    }
  }
}

TEST(TopologyProperties, SurvivingSubgraphIsContainedInOriginal) {
  Rng rng{kPropertySeed + 1};
  for (int round = 0; round < 5; ++round) {
    for (const auto& [family, sample] : sample_families(rng)) {
      const Graph& host = sample.graph;
      if (host.num_nodes() < 4) continue;
      SCOPED_TRACE(family + " round " + std::to_string(round));
      const double node_rate = 0.05 + 0.1 * static_cast<double>(round);
      const FaultPlan plan = make_uniform_node_faults(host, node_rate, rng());
      const SurvivingHost survivor = surviving_subgraph(host, plan);

      ASSERT_EQ(survivor.to_survivor.size(), host.num_nodes());
      EXPECT_LE(survivor.graph.num_nodes(), host.num_nodes());
      EXPECT_LE(survivor.graph.num_edges(), host.num_edges());

      // The id maps are mutually inverse on survivors.
      ASSERT_EQ(survivor.to_original.size(), survivor.graph.num_nodes());
      for (NodeId s = 0; s < survivor.graph.num_nodes(); ++s) {
        const NodeId orig = survivor.to_original[s];
        ASSERT_LT(orig, host.num_nodes());
        EXPECT_EQ(survivor.to_survivor[orig], s);
      }

      // Every surviving edge is an edge of the original host.
      for (const auto& [u, v] : survivor.graph.edge_list()) {
        EXPECT_TRUE(host.has_edge(survivor.to_original[u], survivor.to_original[v]))
            << "edge (" << u << ", " << v << ")";
      }
    }
  }
}

TEST(ArtifactRoundTrip, ProtocolWriteReadWriteIsByteIdentical) {
  Rng rng{kPropertySeed + 2};
  for (const std::uint32_t n : {32u, 64u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Graph guest = make_random_regular(n, kGuestDegree, rng);
    const Graph host = make_butterfly(2);
    UniversalSimulator sim{guest, host, make_random_embedding(n, host.num_nodes(), rng)};
    UniversalSimOptions options;
    options.emit_protocol = true;
    const UniversalSimResult result = sim.run(3, options);
    ASSERT_TRUE(result.protocol.has_value());

    std::ostringstream first;
    write_protocol(first, *result.protocol);
    std::istringstream in{first.str()};
    const Protocol reread = read_protocol(in);
    std::ostringstream second;
    write_protocol(second, reread);
    EXPECT_EQ(first.str(), second.str());
  }
}

// ---- Router step invariants (the data-oriented engine's contract) --------
//
// The streamed transfers are the engine's ground truth: these properties
// replay them and check the per-step guarantees the port models advertise,
// plus that the scalar summaries (max_queue, delivered_at) are faithful to
// them.

struct RoutedInstance {
  Graph host;
  RouteResult result;
  testing::HopRecorder streamed;
};

RoutedInstance route_instance(std::uint64_t seed, PortModel model) {
  Rng rng{seed};
  Graph host = make_butterfly(3);
  if (rng.uniform() < 0.5) {
    for (;;) {
      Graph g = make_random_regular(26, 4, rng);
      if (is_connected(g)) {
        host = std::move(g);
        break;
      }
    }
  }
  const auto h = static_cast<std::uint32_t>(rng.between(1, 6));
  const HhProblem problem = random_h_relation(host.num_nodes(), h, rng);
  std::vector<Packet> packets;
  for (const Demand& d : problem.demands()) {
    Packet p;
    p.src = d.src;
    p.dst = d.dst;
    p.via = d.dst;
    packets.push_back(p);
  }
  GreedyPolicy policy{host};
  SyncRouter router{host, model};
  testing::HopRecorder streamed;
  RouteResult result = router.route(std::move(packets), policy, streamed.sink());
  EXPECT_EQ(streamed.steps().size(), result.steps) << "one sink call per router step";
  return RoutedInstance{std::move(host), std::move(result), std::move(streamed)};
}

// Applies `fn` to every streamed router step's transfers, in step order.
template <typename Fn>
void for_each_step(const testing::HopRecorder& streamed, Fn&& fn) {
  for (std::uint32_t step = 0; step < streamed.steps().size(); ++step) {
    fn(step, std::span<const Transfer>{streamed.steps()[step]});
  }
}

TEST(RouterStepInvariants, SinglePortStepsFormMatchings) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const RoutedInstance instance = route_instance(seed, PortModel::kSinglePort);
    for_each_step(instance.streamed, [&](std::uint32_t step, std::span<const Transfer> slice) {
      std::vector<NodeId> touched;
      for (const Transfer& tr : slice) {
        touched.push_back(tr.from);
        touched.push_back(tr.to);
      }
      std::sort(touched.begin(), touched.end());
      ASSERT_EQ(std::adjacent_find(touched.begin(), touched.end()), touched.end())
          << "node sends or receives twice in step " << step << " (seed " << seed << ")";
    });
  }
}

TEST(RouterStepInvariants, MultiPortUsesEachDirectedLinkAtMostOncePerStep) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const RoutedInstance instance = route_instance(seed, PortModel::kMultiPort);
    for_each_step(instance.streamed, [&](std::uint32_t step, std::span<const Transfer> slice) {
      std::vector<std::uint64_t> links;
      for (const Transfer& tr : slice) {
        links.push_back((static_cast<std::uint64_t>(tr.from) << 32) | tr.to);
      }
      std::sort(links.begin(), links.end());
      ASSERT_EQ(std::adjacent_find(links.begin(), links.end()), links.end())
          << "directed link used twice in step " << step << " (seed " << seed << ")";
    });
  }
}

TEST(RouterStepInvariants, MaxQueueIsTheTrueRunningPeak) {
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    for (const std::uint64_t seed : {6u, 7u, 8u}) {
      const RoutedInstance instance = route_instance(seed, model);
      const RouteResult& result = instance.result;
      // Replay buffer occupancy from the hops: a packet occupies its source
      // queue unless delivered on the spot, leaves `from` when it hops, and
      // occupies `to` afterwards unless that hop delivered it.
      std::vector<std::uint32_t> occupancy(instance.host.num_nodes(), 0);
      for (const Packet& p : result.packets) {
        if (p.delivered_at != 0) ++occupancy[p.src];
      }
      std::uint32_t peak = *std::max_element(occupancy.begin(), occupancy.end());
      for_each_step(instance.streamed, [&](std::uint32_t step, std::span<const Transfer> slice) {
        for (const Transfer& tr : slice) {
          ASSERT_GT(occupancy[tr.from], 0u);
          --occupancy[tr.from];
        }
        for (const Transfer& tr : slice) {
          if (result.packets[tr.packet].delivered_at !=
              static_cast<std::int64_t>(step) + 1) {
            ++occupancy[tr.to];
          }
        }
        peak = std::max(peak, *std::max_element(occupancy.begin(), occupancy.end()));
      });
      ASSERT_EQ(result.max_queue, peak)
          << "reported max_queue is not the replayed peak (seed " << seed << ")";
      ASSERT_EQ(std::count_if(occupancy.begin(), occupancy.end(),
                              [](std::uint32_t c) { return c != 0; }),
                0)
          << "replay left packets buffered after the last step";
    }
  }
}

TEST(RouterStepInvariants, DeliveredAtIsMonotoneWithTheStreamedTransfers) {
  for (const PortModel model : {PortModel::kMultiPort, PortModel::kSinglePort}) {
    for (const std::uint64_t seed : {9u, 10u, 11u}) {
      const RoutedInstance instance = route_instance(seed, model);
      const RouteResult& result = instance.result;
      // Per packet: hop steps strictly increase, and delivery happens exactly
      // one step after the final hop (0 for packets born at their target).
      std::vector<std::int64_t> last_hop(result.packets.size(), -1);
      for (const Transfer& tr : instance.streamed.hops()) {
        ASSERT_GT(static_cast<std::int64_t>(tr.step), last_hop[tr.packet])
            << "streamed hops not strictly increasing for packet " << tr.packet;
        last_hop[tr.packet] = tr.step;
      }
      for (std::size_t i = 0; i < result.packets.size(); ++i) {
        ASSERT_EQ(result.packets[i].delivered_at, last_hop[i] + 1)
            << "delivered_at disagrees with the last streamed hop (packet " << i << ")";
      }
    }
  }
}

}  // namespace
}  // namespace upn
