// Experiment ONLINE -- adaptive routing under live churn, degradation curve.
//
// Theorem 2.1's slowdown is achieved by an omniscient offline router on a
// pristine host.  This experiment runs the SAME universal simulation over
// src/routing/online -- host nodes learn routes purely from bandwidth-capped
// announcement traffic while a FaultPlan kills and heals links mid-run --
// and charts what the online discipline costs: achieved slowdown s_online
// against the offline optimum s_offline (UniversalSimulator, multi-port)
// and the paper's (n/m) log2 m shape, swept across churn rates.  Churn
// generators are COUPLED (a higher rate's churning link set contains a
// lower rate's under the same seed), so each curve is a true degradation
// path of one machine.  Graceful degradation, quantified: stale reads and
// lost packets grow with the churn rate, but every row completes.
#include <cmath>
#include <iostream>
#include <string>

#include "bench/harness.hpp"
#include "src/core/online_adaptive_sim.hpp"
#include "src/core/universal_sim.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/topology/butterfly.hpp"
#include "src/topology/mesh.hpp"
#include "src/topology/random_regular.hpp"
#include "src/util/table.hpp"

namespace {

using namespace upn;

constexpr std::uint64_t kSeed = 0x0511;
constexpr std::uint32_t kGuestSteps = 3;
constexpr std::uint32_t kChurnHorizon = 1u << 14;  ///< churn outlives the whole run

std::vector<NodeId> round_robin_embedding(std::uint32_t n, std::uint32_t m) {
  std::vector<NodeId> embedding;
  embedding.reserve(n);
  for (NodeId u = 0; u < n; ++u) embedding.push_back(u % m);
  return embedding;
}

std::uint64_t counter_of(const std::vector<obs::MetricRow>& rows, const std::string& name) {
  for (const obs::MetricRow& row : rows) {
    if (row.name == name) return row.count;
  }
  return 0;
}

/// One churn curve: online slowdown vs the offline optimum vs the paper
/// bound.  The offline baseline is computed once -- it sees neither churn
/// nor the announcement protocol, which is exactly the point.
void print_churn_curve(const Graph& host) {
  const std::uint32_t m = host.num_nodes();
  const std::uint32_t n = 2 * m;
  Rng rng{kSeed};
  const Graph guest = make_random_regular(n, 3, rng);
  const std::vector<NodeId> embedding = round_robin_embedding(n, m);
  const double paper_bound =
      (static_cast<double>(n) / m) * std::log2(static_cast<double>(m));

  UniversalSimulator offline{guest, host, embedding};
  UniversalSimOptions offline_options;
  offline_options.port_model = PortModel::kMultiPort;
  const UniversalSimResult base = offline.run(kGuestSteps, offline_options);

  std::cout << "--- live link churn, host = " << host.name() << " (m = " << m
            << ", n = " << n << ", T = " << kGuestSteps
            << ", offline optimum s = " << base.slowdown
            << ", (n/m)log2(m) = " << paper_bound << ") ---\n";
  Table table{{"rate", "s online", "stretch", "s/bound", "rounds", "stale reads",
               "packets lost", "exact", "status"}};
  double previous = 0.0;
  bool monotone = true;
  for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    const FaultPlan plan = make_link_churn(host, rate, kSeed, kChurnHorizon);
    OnlineAdaptiveSimulator sim{guest, host, embedding, plan};
    OnlineAdaptiveSimOptions options;
    // A short warmup: under ongoing churn the tables never fully quiesce,
    // so the regime routes over a LIVE learning protocol, which is the
    // phenomenon being measured.
    options.warmup_rounds = 256;
    const auto before = obs::registry().snapshot(obs::MetricKind::kDeterministic);
    const OnlineAdaptiveSimResult result = sim.run(kGuestSteps, options);
    const auto delta =
        obs::delta_rows(before, obs::registry().snapshot(obs::MetricKind::kDeterministic));
    table.add_row({rate, result.slowdown, result.slowdown / base.slowdown,
                   result.slowdown / paper_bound,
                   counter_of(delta, "routing.online.steps"), result.stale_reads,
                   result.packets_lost, std::string{result.configs_match ? "yes" : "no"},
                   std::string{"ok"}});
    monotone &= result.slowdown >= previous;
    previous = result.slowdown;
  }
  table.print(std::cout);
  std::cout << "slowdown monotone in churn rate: " << (monotone ? "yes" : "NO") << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  upn::bench::Harness harness{"online", argc, argv};

  std::cout << "=== ONLINE: adaptive routing vs the offline optimum under churn ===\n\n";
  const Graph butterfly = make_butterfly(3);
  const Graph mesh = make_mesh(6, 6);
  harness.once("churn_curve/butterfly", [&] { print_churn_curve(butterfly); });
  harness.once("churn_curve/mesh", [&] { print_churn_curve(mesh); });
  std::cout << "stretch = s_online / s_offline; rounds = protocol rounds consumed\n"
               "(hellos keep flowing while packets fly).  Stale reads substitute a\n"
               "remembered neighbor configuration for a lost delivery, so high-churn\n"
               "rows complete with degraded fidelity instead of failing.\n\n";

  // Timed sections: the cost of one protocol round on a converged host, and
  // of routing one seeded packet batch while churn keeps landing.
  {
    const Graph host = make_mesh(6, 6);
    const FaultPlan quiet;
    OnlineRouter router{host, quiet};
    (void)router.run_until_stable(1u << 12);
    harness.measure("protocol_round/mesh=6x6", [&] {
      const OnlineStepStats stats = router.step();
      upn::bench::keep(stats.announcements);
    });
  }
  for (const std::uint32_t pct : {0u, 20u}) {
    const Graph host = make_mesh(6, 6);
    const FaultPlan plan =
        make_link_churn(host, static_cast<double>(pct) / 100.0, kSeed, kChurnHorizon);
    harness.measure("route_64_packets/churn=" + std::to_string(pct), [&] {
      OnlineRouter router{host, plan};
      (void)router.run_until_stable(256);
      Rng rng{kSeed};
      std::vector<Packet> packets;
      while (packets.size() < 64) {
        const NodeId s = static_cast<NodeId>(rng.below(host.num_nodes()));
        const NodeId d = static_cast<NodeId>(rng.below(host.num_nodes()));
        if (s == d) continue;
        Packet p;
        p.src = s;
        p.dst = d;
        p.via = d;
        packets.push_back(p);
      }
      const OnlineRouteResult result = router.route(std::move(packets));
      upn::bench::keep(result.transfers);
    });
  }

  return harness.finish();
}
