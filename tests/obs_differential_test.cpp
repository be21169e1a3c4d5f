// Differential determinism test for the obs layer: the deterministic
// metric snapshot of a fixed seeded workload must be BYTE-IDENTICAL across
// thread counts.  Every deterministic metric mutation is commutative
// (integer add, integer max, bucket add), so the merged registry state may
// not depend on scheduling; this test pins that contract at pool sizes
// 1 (serial path), 2, and 7 (oversubscribed), mirroring the UPN_THREADS
// values CI exercises.
#include <gtest/gtest.h>

#include <string>

#include "src/core/slowdown.hpp"
#include "src/obs/obs.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/par.hpp"
#include "tests/support/snapshot_text.hpp"

namespace upn {
namespace {

constexpr std::uint32_t kGuestSize = 96;
constexpr std::uint32_t kGuestSteps = 2;
constexpr std::uint64_t kSeed = 17;

/// Runs the pooled butterfly sweep from a zeroed registry and renders the
/// deterministic snapshot.  The snapshot is taken after the pool has
/// drained (parallel_for is a barrier), so no writer races the read.
std::string snapshot_after_sweep(unsigned threads) {
  obs::set_enabled(true);
  obs::registry().reset();
  Rng rng{kSeed};
  const Graph guest = make_random_regular(kGuestSize, kGuestDegree, rng);
  ThreadPool pool{threads};
  const auto rows =
      sweep_butterfly_hosts_par(guest, kGuestSteps, kGuestSize, kSeed, pool);
  EXPECT_FALSE(rows.empty());
  return obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic));
}

TEST(ObsDifferential, DeterministicSnapshotIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = snapshot_after_sweep(1);
  EXPECT_NE(serial.find("sim.universal.comm_steps"), std::string::npos) << serial;
  EXPECT_NE(serial.find("routing.sync.steps"), std::string::npos) << serial;
  EXPECT_NE(serial.find("util.par.tasks_run"), std::string::npos) << serial;
  EXPECT_EQ(serial, snapshot_after_sweep(2));
  EXPECT_EQ(serial, snapshot_after_sweep(7));
}

TEST(ObsDifferential, TimingMetricsStayOutOfTheDeterministicSnapshot) {
  obs::set_enabled(true);
  obs::registry().reset();
  ThreadPool pool{4};
  pool.parallel_for(64, [](std::size_t) {});
  const std::string deterministic =
      obs::snapshot_text(obs::registry().snapshot(obs::MetricKind::kDeterministic));
  EXPECT_EQ(deterministic.find("util.par.busy_ns"), std::string::npos) << deterministic;
  const std::string full = obs::snapshot_text(obs::registry().snapshot());
  EXPECT_NE(full.find("util.par.busy_ns"), std::string::npos) << full;
}

}  // namespace
}  // namespace upn
