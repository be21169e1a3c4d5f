// Online adaptive routing under live churn: the BATMAN-derived regime.
//
// Every other routing layer in this repository is offline -- Benes switch
// settings, path schedules, butterfly schedules, even the fault-aware
// router's detours are computed from an omniscient view of the live
// subgraph.  OnlineRouter is the opposite discipline, after serval-dna's
// overlay router (SNIPPETS.md): host nodes know NOTHING but what link-local
// announcement traffic tells them.  Each protocol round, every node whose
// seeded hello timer fires broadcasts a bandwidth-capped announcement
// (itself plus its best known routes) to its live neighbors; receivers fold
// the announcements into per-node route tables (route_table.hpp) under the
// freshness-first DSDV rule; entries that stop being refreshed expire.
// Link death is DETECTED by silence and repaired routes are re-learned from
// new announcements, so the data plane keeps delivering while a FaultPlan
// kills and heals links mid-run -- degrading gracefully (bounded stretch,
// retries with seeded jittered backoff, a step ceiling instead of livelock)
// rather than stopping the world.
//
// Determinism contract: for a fixed (graph, plan, packets), every table,
// counter, and delivery verdict is byte-identical run to run -- nodes fold
// their announcements in index order, and all jitter derives from kSeed,
// never from scheduling.  tests/online_golden_test pins a seeded churn run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/routing/online/route_table.hpp"
#include "src/routing/router.hpp"
#include "src/topology/graph.hpp"

namespace upn {

/// Control-plane activity of one protocol round.
struct OnlineStepStats {
  std::uint64_t announcements = 0;  ///< hello messages sent over live links
  std::uint64_t revisions = 0;      ///< table entries created or rewritten
  std::uint64_t expired = 0;        ///< table entries dropped by staleness
  bool topology_changed = false;    ///< the fault clock activated kill/heal events
};

/// Outcome of run_until_stable().
struct ConvergenceReport {
  std::uint32_t rounds = 0;  ///< protocol rounds consumed
  bool stable = false;       ///< a full hello cycle passed with no revisions/expiries
};

/// Outcome of one data-plane routing call.
struct OnlineRouteResult {
  std::uint32_t steps = 0;      ///< host steps (= protocol rounds) consumed
  std::uint32_t delivered = 0;
  std::uint32_t lost = 0;       ///< retries exhausted, endpoint dead, or step ceiling
  std::uint64_t transfers = 0;  ///< single-link packet moves
  std::uint64_t retries = 0;    ///< backoff waits taken (no route / dead link / TTL)
  std::vector<Packet> packets;  ///< with delivered_at / lost filled in
};

class OnlineRouter {
 public:
  /// Protocol timers and budgets, in rounds (= host steps) unless noted.
  static constexpr std::uint32_t kHelloInterval = 4;  ///< rounds between a node's hellos
  static constexpr std::uint32_t kAnnounceCap = 8;    ///< max routes per announcement
  static constexpr std::uint32_t kStaleAfter = 24;    ///< silence before an entry expires;
                                                      ///< the constructor may raise it
  static constexpr std::uint32_t kBackoffBase = 2;    ///< retry backoff; doubles per retry
  static constexpr std::uint32_t kBackoffCap = 64;    ///< ceiling on any single backoff wait
  static constexpr std::uint32_t kMaxRetries = 16;    ///< per packet, before it is lost
  static constexpr std::uint32_t kTtlPerNode = 4;     ///< hops before a retry: 4 * num_nodes
  static constexpr std::uint32_t kSeqLag = 4;         ///< per-hop seq slack (added to the
                                                      ///< rotation cycle) before an incumbent
                                                      ///< route is presumed broken
  static constexpr std::uint64_t kSeed = 0x0511;      ///< hello phases and backoff jitter

  /// Graph and plan must outlive the router.  The fault clock starts at
  /// step 0; every protocol round advances it by one host step.
  OnlineRouter(const Graph& host, const FaultPlan& plan);

  /// Runs one protocol round: advance churn, exchange hello announcements
  /// over live links, fold them into the tables, expire stale entries.
  OnlineStepStats step();

  /// Steps until a full staleness window (stale_after() + 1 consecutive
  /// rounds) passes with zero revisions and zero expiries, or max_rounds
  /// elapse.  The window is a staleness window rather than a hello cycle
  /// because a dead link is INVISIBLE until silence expires its routes.
  /// After churn stops this is the convergence point the property tests
  /// bound; under ongoing churn it typically reports stable == false.
  ConvergenceReport run_until_stable(std::uint32_t max_rounds);

  /// Routes packets over the ADAPTING tables: each host step runs one
  /// protocol round and then moves packets one table-directed hop (one
  /// packet per directed link per step; lowest id wins contention).
  /// Packets with no usable route wait out a seeded jittered backoff and
  /// retry; kMaxRetries failures, a dead endpoint, or the step ceiling mark
  /// a packet lost -- the call never throws on undeliverable traffic.
  [[nodiscard]] OnlineRouteResult route(std::vector<Packet> packets,  // upn-analyze-waive(hotpath-by-value-param: sink parameter, moved into the result in the .cpp)
                                        std::uint32_t max_steps = 1u << 16);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// The staleness window in force: kStaleAfter, raised by the constructor
  /// to outlast the announcement-rotation cycle, so callers sizing
  /// convergence bounds must read it back from here.
  [[nodiscard]] std::uint32_t stale_after() const noexcept { return stale_after_; }
  [[nodiscard]] std::uint32_t now() const noexcept { return now_; }
  [[nodiscard]] const RouteTable& table(NodeId v) const { return tables_[v]; }

 private:
  void compose_hellos(std::vector<std::vector<RouteAnnouncement>>& inbox,
                      OnlineStepStats& stats);
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> absorb_inbox_at(
      NodeId v, const std::vector<std::vector<RouteAnnouncement>>& inbox);

  const Graph* graph_;
  std::uint32_t stale_after_ = kStaleAfter;
  std::uint32_t max_ttl_ = 0;  ///< kTtlPerNode * num_nodes
  FaultClock clock_;
  std::uint32_t now_ = 0;
  std::vector<RouteTable> tables_;
  std::vector<std::uint32_t> seq_;          ///< per-node hello sequence numbers
  std::vector<std::uint32_t> hello_phase_;  ///< seeded jitter desynchronizing hellos
  std::uint32_t seq_lag_per_hop_ = 0;       ///< kSeqLag + announcement-rotation cycle
};

}  // namespace upn
