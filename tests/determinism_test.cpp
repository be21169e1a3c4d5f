// Determinism regression tests: the protocol / schedule / fault-plan
// emitters must be reproducible run to run.  Each test executes the
// producer twice from identical inputs and compares the results: the
// serialized bytes for the .upnp and .upnf formats, the PathSchedule value
// itself for the greedy scheduler.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/embedding.hpp"
#include "src/core/embedding_metrics.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/pebble/io.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/topology/builders.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/rng.hpp"

namespace upn {
namespace {

std::string emitted_protocol() {
  Rng guest_rng{99};
  const Graph guest = make_random_regular(16, 4, guest_rng);
  const Graph host = make_butterfly(2);
  UniversalSimulator sim{guest, host, make_block_embedding(16, host.num_nodes())};
  UniversalSimOptions options;
  options.emit_protocol = true;
  const UniversalSimResult result = sim.run(4, options);
  std::ostringstream os;
  write_protocol(os, *result.protocol);
  return os.str();
}

TEST(Determinism, PipelineEmitsByteIdenticalProtocols) {
  const std::string first = emitted_protocol();
  const std::string second = emitted_protocol();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

PathSchedule emitted_schedule() {
  const Graph host = make_cycle(16);
  Rng rng{0xfeed};
  const HhProblem problem = random_permutation_problem(16, rng);
  return schedule_paths(host, problem);
}

TEST(Determinism, GreedySchedulerEmitsByteIdenticalSchedules) {
  const PathSchedule first = emitted_schedule();
  EXPECT_GT(first.total_moves, 0u);
  EXPECT_EQ(first, emitted_schedule());
}

TEST(Determinism, FaultPlanGeneratorsAreSeedStable) {
  const Graph host = make_cycle(32);
  const auto emit = [&] {
    const FaultPlan plan =
        merge_plans(make_uniform_link_faults(host, 0.2, 0xabcd, 3),
                    make_uniform_drops(host, 0.1, 0xabcd, 0, 16));
    std::ostringstream os;
    write_fault_plan(os, plan);
    return os.str();
  };
  EXPECT_EQ(emit(), emit());
}

TEST(Determinism, EmbeddingMetricsStableAcrossRuns) {
  Rng guest_rng{7};
  const Graph guest = make_random_regular(24, 4, guest_rng);
  const Graph host = make_cycle(8);
  const auto embedding = make_block_embedding(24, 8);
  const EmbeddingMetrics a = analyze_embedding(guest, host, embedding);
  const EmbeddingMetrics b = analyze_embedding(guest, host, embedding);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.dilation, b.dilation);
  EXPECT_EQ(a.total_path_length, b.total_path_length);
}

TEST(Determinism, RngStreamSubstreamsArePinned) {
  // Golden values for the per-task sub-stream derivation.  Rng::stream is
  // what makes the parallel sweeps/census byte-identical across thread
  // counts; changing its mixing silently changes every parallel table, so
  // the first two outputs of representative (seed, task_index) pairs are
  // pinned here.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t task_index;
    std::uint64_t first;
    std::uint64_t second;
  };
  constexpr Golden kGolden[] = {
      {0ULL, 0ULL, 8029058919735265293ULL, 15554015686778083075ULL},
      {0ULL, 1ULL, 4337604606120936101ULL, 6385271038737753524ULL},
      {42ULL, 0ULL, 16289772587287430427ULL, 7634636352512728480ULL},
      {42ULL, 7ULL, 12437730939238533646ULL, 8643353185355321646ULL},
      {0xdeadbeefULL, 123456ULL, 9375597164542985926ULL, 5561742320487136935ULL},
  };
  for (const Golden& g : kGolden) {
    Rng rng = Rng::stream(g.seed, g.task_index);
    EXPECT_EQ(rng(), g.first) << "seed " << g.seed << " task " << g.task_index;
    EXPECT_EQ(rng(), g.second) << "seed " << g.seed << " task " << g.task_index;
  }
}

}  // namespace
}  // namespace upn
