// The guest-step kernel and its delivery backends.  Every backend test runs
// the real backend function under a wrapper that tampers with one delivered
// record: the kernel must see the tampering, because for a crossing guest
// edge it reads nothing but what the backend delivered.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/embedding.hpp"
#include "src/core/guest_step.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/offline_butterfly.hpp"
#include "src/routing/online/online_router.hpp"
#include "src/routing/path_schedule.hpp"
#include "src/routing/policies.hpp"
#include "src/sorting/bitonic.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/contracts.hpp"
#include "src/util/math.hpp"
#include "src/util/rng.hpp"

namespace upn {
namespace {

constexpr std::uint32_t kSteps = 3;
constexpr std::uint64_t kSeed = 77;

struct Fixture {
  Graph guest;
  Graph host;
  std::vector<NodeId> embedding;
};

/// 48 guests of degree 8 on butterfly(2) (12 hosts, unwrapped).
Fixture make_fixture() {
  Rng rng{2024};
  Graph guest = make_random_regular(48, 8, rng);
  Graph host = make_butterfly(2);
  std::vector<NodeId> embedding = make_random_embedding(48, host.num_nodes(), rng);
  return Fixture{std::move(guest), std::move(host), std::move(embedding)};
}

/// A backend as the simulators call it: the step's payloads in, deliveries
/// out through `deliver`.
using Backend = std::function<void(StepPayloads, const DeliverFn&)>;

/// What tampering a wrapper applies to one delivered record.
enum class Tamper { kNone, kCorrupt, kDrop };

struct StepRun {
  bool configs_match = false;
  std::uint64_t stale = 0;
};

/// Runs kSteps guest steps through `backend`; in step 2 the wrapper
/// tampers with the first record it sees.
StepRun run_wrapped(const Fixture& f, const Backend& backend, Tamper tamper) {
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  StepRun run;
  for (std::uint32_t t = 1; t <= kSteps; ++t) {
    bool tampered = tamper == Tamper::kNone || t != 2;
    const DeliverFn wrapped = [&](std::uint32_t d, Config payload) {
      if (!tampered) {
        tampered = true;
        if (tamper == Tamper::kDrop) return;
        payload ^= 0x1;
      }
      kernel.deliver(d, payload);
    };
    backend(kernel.step_payloads(), wrapped);
    run.stale += kernel.compute();
  }
  run.configs_match = kernel.configs_match();
  return run;
}

/// The honest run matches the direct execution; corrupting one delivered
/// payload breaks the match without leaving any slot stale.
void expect_corruption_detected(const Fixture& f, const Backend& backend) {
  const StepRun honest = run_wrapped(f, backend, Tamper::kNone);
  EXPECT_TRUE(honest.configs_match);
  EXPECT_EQ(honest.stale, 0u);
  const StepRun corrupted = run_wrapped(f, backend, Tamper::kCorrupt);
  EXPECT_FALSE(corrupted.configs_match);
  EXPECT_EQ(corrupted.stale, 0u);
}

TEST(GuestStep, DemandsFollowTheGuestStepRelation) {
  const Fixture f = make_fixture();
  const std::vector<GuestDemand> demands = guest_step_demands(f.guest, f.embedding);
  const HhProblem relation = guest_step_relation(f.guest, f.embedding, f.host.num_nodes());
  ASSERT_EQ(demands.size(), relation.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    EXPECT_EQ(demands[d].src, relation.demands()[d].src);
    EXPECT_EQ(demands[d].dst, relation.demands()[d].dst);
    EXPECT_EQ(f.guest.adjacency()[demands[d].slot], demands[d].sender);
    EXPECT_EQ(f.embedding[demands[d].receiver], demands[d].dst);
  }
}

TEST(GuestStep, RejectsEmbeddingOfWrongSize) {
  const Fixture f = make_fixture();
  EXPECT_THROW((void)guest_step_demands(f.guest, std::vector<NodeId>(5, 0)), ContractViolation);
}

TEST(GuestStep, RouterMutationIsDetected) {
  const Fixture f = make_fixture();
  SyncRouter router{f.host, PortModel::kSinglePort};
  GreedyPolicy policy{f.host};
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    (void)route_demands(router, policy, {}, step, deliver);
  });
}

TEST(GuestStep, BenesReplayMutationIsDetected) {
  const Fixture f = make_fixture();
  const OfflineSchedule schedule =
      route_relation_offline(2, guest_step_relation(f.guest, f.embedding, f.host.num_nodes()));
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    (void)replay_schedule(schedule.moves, schedule.num_steps, step, deliver);
  });
}

TEST(GuestStep, PathReplayMutationIsDetected) {
  const Fixture f = make_fixture();
  const PathSchedule schedule =
      schedule_paths(f.host, guest_step_relation(f.guest, f.embedding, f.host.num_nodes()));
  const std::vector<ScheduledMove> moves = path_schedule_moves(schedule);
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    (void)replay_schedule(moves, schedule.makespan, step, deliver);
  });
}

TEST(GuestStep, SortDeliveryMutationIsDetected) {
  const Fixture f = make_fixture();
  const auto wires = static_cast<std::uint32_t>(next_power_of_two(f.host.num_nodes()));
  const ComparatorNetwork sorter = make_bitonic_sorter(wires);
  const HhProblem relation = guest_step_relation(f.guest, f.embedding, wires);
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    (void)sort_demands(relation, sorter, step, deliver);
  });
}

TEST(GuestStep, SortRecordLandingOffItsDestinationThrows) {
  // The network sorts a relation whose destinations are all shifted by one
  // host, so every record lands next to its demand's destination.
  const Fixture f = make_fixture();
  const std::uint32_t m = f.host.num_nodes();
  const auto wires = static_cast<std::uint32_t>(next_power_of_two(m));
  const ComparatorNetwork sorter = make_bitonic_sorter(wires);
  const HhProblem relation = guest_step_relation(f.guest, f.embedding, wires);
  HhProblem shifted{wires};
  for (const Demand& d : relation.demands()) {
    shifted.add(d.src, (d.dst + 1) % m);
  }
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  try {
    (void)sort_demands(shifted, sorter, kernel.step_payloads(), deliver);
    FAIL() << "a record off its destination must throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "run_galil_paul: sort routing delivered wrong records");
  }
}

TEST(GuestStep, FaultRouterMutationIsDetected) {
  const Fixture f = make_fixture();
  const FaultPlan drops = make_uniform_drops(f.host, 0.1, 5);
  SyncRouter router{f.host, PortModel::kSinglePort};
  FaultRouteOptions faults;
  faults.plan = &drops;
  faults.max_retries = 64;
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    std::vector<std::uint32_t> ids(step.demands.size());
    for (std::uint32_t d = 0; d < ids.size(); ++d) ids[d] = d;
    const RouteResult routed =
        route_demands_with_faults(router, faults, {}, step, ids, deliver);
    ASSERT_EQ(routed.packets_lost, 0u);
  });
}

TEST(GuestStep, OnlineRouterMutationShowsAsMismatchNotStaleRead) {
  const Fixture f = make_fixture();
  const FaultPlan no_churn;
  OnlineRouter router{f.host, no_churn};
  ASSERT_TRUE(router.run_until_stable(256).stable);
  expect_corruption_detected(f, [&](StepPayloads step, const DeliverFn& deliver) {
    const OnlineRouteResult routed =
        route_demands_online(router, 1u << 14, step, deliver);
    ASSERT_EQ(routed.lost, 0u);
  });
}

TEST(GuestStep, OnlineDroppedDeliveryIsAStaleRead) {
  // A dropped delivery is a stale read: the slot keeps its old content.
  const Fixture f = make_fixture();
  const FaultPlan no_churn;
  OnlineRouter router{f.host, no_churn};
  ASSERT_TRUE(router.run_until_stable(256).stable);
  const StepRun dropped = run_wrapped(
      f,
      [&](StepPayloads step, const DeliverFn& deliver) {
        (void)route_demands_online(router, 1u << 14, step, deliver);
      },
      Tamper::kDrop);
  EXPECT_EQ(dropped.stale, 1u);
}

TEST(GuestStep, ReplayedHopOffThePacketPositionThrows) {
  const Fixture f = make_fixture();
  OfflineSchedule schedule =
      route_relation_offline(2, guest_step_relation(f.guest, f.embedding, f.host.num_nodes()));
  ASSERT_FALSE(schedule.moves.empty());
  ScheduledMove& hop = schedule.moves[schedule.moves.size() / 2];
  hop.from = (hop.from + 1) % f.host.num_nodes();
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  EXPECT_THROW((void)replay_schedule(schedule.moves, schedule.num_steps, kernel.step_payloads(),
                                     deliver),
               std::logic_error);
}

TEST(GuestStep, ReplayHandsOverOnlyAtTheDestination) {
  // Without its last hop a packet never reaches its destination host, so
  // its payload is not handed over and the receiver's slot stays stale.
  const Fixture f = make_fixture();
  const OfflineSchedule schedule =
      route_relation_offline(2, guest_step_relation(f.guest, f.embedding, f.host.num_nodes()));
  std::vector<ScheduledMove> truncated = schedule.moves;
  const std::uint32_t victim = truncated.back().packet;
  truncated.pop_back();
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  std::vector<std::uint32_t> delivered;
  (void)replay_schedule(truncated, schedule.num_steps, kernel.step_payloads(),
                        [&](std::uint32_t d, Config payload) {
                          delivered.push_back(d);
                          kernel.deliver(d, payload);
                        });
  EXPECT_EQ(delivered.size(), kernel.step_payloads().demands.size() - 1);
  EXPECT_EQ(std::count(delivered.begin(), delivered.end(), victim), 0);
  EXPECT_EQ(kernel.compute(), 1u);
}

TEST(GuestStep, ReplayRejectsPacketIndexOutOfRange) {
  const Fixture f = make_fixture();
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  const auto size = static_cast<std::uint32_t>(kernel.step_payloads().demands.size());
  const std::vector<ScheduledMove> moves{ScheduledMove{0, 0, 1, size}};
  const DeliverFn deliver = std::bind_front(&GuestStepKernel::deliver, &kernel);
  EXPECT_THROW((void)replay_schedule(moves, 1, kernel.step_payloads(), deliver), ContractViolation);
}

TEST(GuestStep, DeliverRejectsDemandIndexOutOfRange) {
  const Fixture f = make_fixture();
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  const auto size = static_cast<std::uint32_t>(kernel.step_payloads().demands.size());
  EXPECT_THROW(kernel.deliver(size, 0), ContractViolation);
}

TEST(GuestStep, LosslessStaleSlotThrows) {
  // A lossless backend that drops one delivery stops the simulation by name.
  const Fixture f = make_fixture();
  SyncRouter router{f.host, PortModel::kSinglePort};
  GreedyPolicy policy{f.host};
  GuestStepKernel kernel{f.guest, f.embedding, kSeed};
  bool dropped = false;
  const DeliverFn drop_one = [&](std::uint32_t d, Config payload) {
    if (!dropped) {
      dropped = true;
      return;
    }
    kernel.deliver(d, payload);
  };
  (void)route_demands(router, policy, {}, kernel.step_payloads(), drop_one);
  try {
    kernel.compute_lossless("UniversalSimulator");
    FAIL() << "a stale slot on a lossless backend must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("UniversalSimulator"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace upn
