// Full-pipeline API tests (and the Galil-Paul end-to-end simulator).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/galil_paul.hpp"
#include "src/core/pipeline.hpp"
#include "src/lowerbound/dependency_tree.hpp"
#include "src/obs/obs.hpp"
#include "src/sorting/sort_route.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/g0.hpp"
#include "src/topology/random_regular.hpp"
#include "src/topology/torus.hpp"

namespace upn {
namespace {

TEST(Pipeline, DefaultConfigPassesAllChecks) {
  PipelineConfig config;
  config.guest_steps = 14;
  const PipelineReport report = run_paper_pipeline(config);
  EXPECT_TRUE(report.configs_verified);
  EXPECT_TRUE(report.protocol_valid) << report.protocol_error;
  EXPECT_TRUE(report.lemma312_holds);
  EXPECT_TRUE(report.expansion_caps_hold);
  EXPECT_FALSE(report.ruled_out_by_counting);
  EXPECT_TRUE(report.all_checks_pass());
  EXPECT_GE(report.slowdown, report.load_bound);
  EXPECT_GT(report.fragment_log2_multiplicity, 0.0);
  EXPECT_GT(report.z_size, 0u);
}

TEST(Pipeline, DeterministicForFixedSeed) {
  PipelineConfig config;
  config.guest_steps = 12;
  config.seed = 99;
  const PipelineReport a = run_paper_pipeline(config);
  const PipelineReport b = run_paper_pipeline(config);
  EXPECT_DOUBLE_EQ(a.slowdown, b.slowdown);
  EXPECT_EQ(a.protocol_ops, b.protocol_ops);
  EXPECT_EQ(a.fragment_sum_b, b.fragment_sum_b);
}

/// The Lemma 3.12 dependency-tree depth of the G_0 that `config` builds,
/// derived the way run_paper_pipeline and verify_lemma312 derive it.
std::uint32_t lemma312_tree_depth(const PipelineConfig& config) {
  Rng rng{config.seed};
  const std::uint32_t m = make_butterfly(config.butterfly_dimension).num_nodes();
  const std::uint32_t a = g0_block_parameter(m);
  const G0 g0 = make_g0(g0_round_guest_size(config.guest_size_hint, a), m, rng);
  return canonical_dependency_tree(g0.layout).depth;
}

TEST(Pipeline, HorizonNoLongerThanTreeDepthFailsUpFront) {
  PipelineConfig config;
  const std::uint32_t depth = lemma312_tree_depth(config);
  ASSERT_GT(depth, 0u);
  obs::set_enabled(true);
  obs::registry().reset();
  for (const std::uint32_t steps : {0u, depth}) {
    config.guest_steps = steps;
    try {
      static_cast<void>(run_paper_pipeline(config));
      FAIL() << "guest_steps=" << steps << " must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("guest_steps (" + std::to_string(steps) + ")"), std::string::npos)
          << what;
      EXPECT_NE(what.find("depth (" + std::to_string(depth) + ")"), std::string::npos) << what;
    }
  }
  // Rejected before the simulator ran: nothing was routed.
  EXPECT_EQ(obs::registry().counter("routing.sync.route_calls").value(), 0u);
  obs::set_enabled(false);
  config.guest_steps = depth + 1;
  EXPECT_TRUE(run_paper_pipeline(config).all_checks_pass());
}

TEST(Pipeline, GuestTooSmallForTheGuestDegreeFailsUpFront) {
  // butterfly(1) and butterfly(2) both give a = 2, so G_0's side is a
  // multiple of 4 and every hint up to 16 rounds to n = 16: too few nodes
  // for a 16-regular guest.
  const std::pair<std::uint32_t, std::uint32_t> hint_and_dimension[] = {{0, 2}, {5, 1}, {16, 2}};
  for (const auto& [hint, dimension] : hint_and_dimension) {
    PipelineConfig config;
    config.guest_size_hint = hint;
    config.butterfly_dimension = dimension;
    try {
      static_cast<void>(run_paper_pipeline(config));
      FAIL() << "guest_size_hint=" << hint << " must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("guest_size_hint (" + std::to_string(hint) + ")"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("n = 16"), std::string::npos) << what;
      EXPECT_NE(what.find("needs n > " + std::to_string(kGuestDegree)), std::string::npos)
          << what;
    }
  }
  // The smallest accepted hint rounds up to the next side, 8.
  PipelineConfig config;
  config.guest_size_hint = 17;
  const PipelineReport report = run_paper_pipeline(config);
  EXPECT_EQ(report.n, 64u);
  EXPECT_TRUE(report.all_checks_pass());
}

/// The counted outputs of one pipeline run, as literals recorded before the
/// pebble checker's bit-row rewrite: a checker change must leave every one
/// of them unchanged.
struct PinnedReport {
  std::uint32_t hint, dimension;
  std::uint64_t seed;
  double slowdown;
  std::uint64_t protocol_ops;
  std::uint32_t z_size;
  std::uint64_t fragment_sum_b;
  double fragment_log2_multiplicity;
};

TEST(Regression, PaperPipelineReportPinnedForFixedSeed) {
  const PinnedReport pinned[] = {
      // upnbench's pipeline_toy config at the default seed.
      {144, 2, 0x5eed, 1203, 145920, 10, 1568, 5848.0889192121113},
      // n = 1296 on butterfly(4).
      {1296, 4, 71, 3460, 2864512, 6, 48066, 75446.826576515377},
  };
  for (const PinnedReport& pin : pinned) {
    PipelineConfig config;
    config.guest_size_hint = pin.hint;
    config.butterfly_dimension = pin.dimension;
    config.guest_steps = 16;
    config.seed = pin.seed;
    const PipelineReport report = run_paper_pipeline(config);
    SCOPED_TRACE("hint " + std::to_string(pin.hint));
    EXPECT_EQ(report.n, pin.hint);
    EXPECT_DOUBLE_EQ(report.slowdown, pin.slowdown);
    EXPECT_EQ(report.protocol_ops, pin.protocol_ops);
    EXPECT_EQ(report.z_size, pin.z_size);
    EXPECT_EQ(report.fragment_sum_b, pin.fragment_sum_b);
    EXPECT_DOUBLE_EQ(report.fragment_log2_multiplicity, pin.fragment_log2_multiplicity);
    EXPECT_TRUE(report.configs_verified);
    EXPECT_TRUE(report.protocol_valid) << report.protocol_error;
    EXPECT_TRUE(report.lemma312_holds);
    EXPECT_TRUE(report.expansion_caps_hold);
    EXPECT_FALSE(report.ruled_out_by_counting);
  }
}

TEST(SortRouteDelivery, MovesPayloadsCorrectly) {
  Rng rng{8};
  const std::uint32_t n = 32;
  const ComparatorNetwork sorter = make_bitonic_sorter(n);
  const HhProblem problem = random_h_relation(n, 3, rng);
  std::vector<std::uint64_t> payloads(problem.size());
  for (std::size_t d = 0; d < payloads.size(); ++d) payloads[d] = 1000 + d;
  const SortRouteDelivery delivery = deliver_relation_by_sorting(problem, payloads, sorter);
  EXPECT_TRUE(delivery.stats.delivered);
  // Every demand arrives exactly once, at its destination, with its payload.
  ASSERT_EQ(delivery.records.size(), problem.size());
  std::vector<int> arrivals(problem.size(), 0);
  for (const SortRecord& record : delivery.records) {
    ASSERT_LT(record.demand, problem.size());
    ++arrivals[record.demand];
    EXPECT_EQ(record.node, problem.demands()[record.demand].dst) << "demand " << record.demand;
    EXPECT_EQ(record.payload, 1000 + record.demand);
  }
  for (std::size_t d = 0; d < arrivals.size(); ++d) EXPECT_EQ(arrivals[d], 1) << "demand " << d;
}

TEST(GalilPaulSim, FullSimulationVerifies) {
  Rng rng{11};
  const Graph guest = make_random_regular(96, 8, rng);
  const GalilPaulSimResult result = run_galil_paul(guest, 16, 4);
  EXPECT_TRUE(result.configs_match);
  EXPECT_GT(result.slowdown, 0.0);
}

TEST(GalilPaulSim, CostsMoreThanLoadBound) {
  Rng rng{12};
  const Graph guest = make_torus(8, 8);
  const GalilPaulSimResult result = run_galil_paul(guest, 8, 3);
  EXPECT_TRUE(result.configs_match);
  EXPECT_GE(result.slowdown, 8.0);  // at least the load 64/8
}

}  // namespace
}  // namespace upn
