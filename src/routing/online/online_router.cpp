#include "src/routing/online/online_router.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace upn {

namespace {

/// Seeded jitter in [0, span): deterministic in (seed, salt), independent of
/// scheduling.  span == 0 yields 0.
[[nodiscard]] std::uint32_t jitter(std::uint64_t seed, std::uint64_t salt,
                                   std::uint32_t span) noexcept {
  return span == 0 ? 0u : static_cast<std::uint32_t>(mix64(seed ^ mix64(salt)) % span);
}

}  // namespace

static_assert(OnlineRouter::kAnnounceCap >= 2, "an announcement carries self plus routes");
static_assert(OnlineRouter::kStaleAfter >= OnlineRouter::kHelloInterval,
              "entries must survive at least one hello cycle");
static_assert(OnlineRouter::kBackoffCap >= OnlineRouter::kBackoffBase);

OnlineRouter::OnlineRouter(const Graph& host, const FaultPlan& plan)
    : graph_(&host),
      max_ttl_(kTtlPerNode * host.num_nodes()),
      clock_(plan, host.num_nodes()),
      seq_(host.num_nodes(), 0),
      hello_phase_(host.num_nodes(), 0) {
  UPN_REQUIRE(host.num_nodes() >= 1, "OnlineRouter: the host must have nodes");
  // A working k-hop route legitimately lags up to one announcement-rotation
  // cycle per hop (the bandwidth cap walks the table one window per hello),
  // so the broken-incumbent gate gets the rotation cycle plus kSeqLag slack
  // PER HOP; a flat gap would convict healthy long routes and flap the
  // tables forever.
  const std::uint32_t n = host.num_nodes();
  const std::uint32_t rotation = n >= 2 ? (n - 2) / (kAnnounceCap - 1) + 1 : 1;
  seq_lag_per_hop_ = kSeqLag + rotation;
  // An entry's staleness timer is only refreshed when its next hop
  // re-announces that origin, which the bandwidth cap delays by up to a
  // full rotation cycle -- so the staleness window must outlast the
  // rotation or healthy routes expire spuriously on large hosts.
  stale_after_ = std::max(kStaleAfter, (rotation + 2) * kHelloInterval);
  tables_.reserve(host.num_nodes());
  for (NodeId v = 0; v < host.num_nodes(); ++v) {
    tables_.emplace_back(v);
    // Desynchronized hello timers: real meshes jitter announcements so churn
    // recovery is not phase-locked to a global clock; seeding the phase
    // keeps the desynchronization reproducible.
    hello_phase_[v] = jitter(kSeed, 0x48454c4cu + v, kHelloInterval);
  }
  UPN_ENSURE(tables_.size() == host.num_nodes(), "one table per host node");
}

void OnlineRouter::compose_hellos(std::vector<std::vector<RouteAnnouncement>>& inbox,
                                  OnlineStepStats& stats) {
  const std::uint32_t n = graph_->num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    inbox[u].clear();
    if ((now_ + hello_phase_[u]) % kHelloInterval != 0) continue;
    if (!clock_.node_alive(u)) continue;
    inbox[u] = tables_[u].compose(++seq_[u], kAnnounceCap);
    // The announcement is link-local: it reaches exactly the live neighbors.
    for (const NodeId nbr : graph_->neighbors(u)) {
      if (clock_.node_alive(nbr) && clock_.link_alive(u, nbr)) ++stats.announcements;
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> OnlineRouter::absorb_inbox_at(
    NodeId v, const std::vector<std::vector<RouteAnnouncement>>& inbox) {
  std::uint64_t revisions = 0;
  if (!clock_.node_alive(v)) {
    // A dead node neither listens nor remembers; drop its state so chains
    // walked for diagnostics cannot pass through a corpse's fossils.
    const std::uint64_t dropped = tables_[v].size();
    if (dropped > 0) tables_[v] = RouteTable{v};
    return {0, dropped};
  }
  // Neighbors are visited in ascending id order, so the fold is a fixed
  // sequential program per node.
  const std::uint32_t max_metric = graph_->num_nodes() - 1;
  for (const NodeId u : graph_->neighbors(v)) {
    if (inbox[u].empty()) continue;
    if (!clock_.node_alive(u) || !clock_.link_alive(u, v)) continue;
    for (const RouteAnnouncement& a : inbox[u]) {
      if (tables_[v].apply(a, u, now_, seq_lag_per_hop_, max_metric) ==
          TableUpdate::kRevised) {
        ++revisions;
      }
    }
  }
  const std::uint64_t expired = tables_[v].expire(now_, stale_after_);
  return {revisions, expired};
}

OnlineStepStats OnlineRouter::step() {
  const std::uint32_t before = now_;
  OnlineStepStats stats;
  ++now_;
  stats.topology_changed = clock_.advance(now_);

  const std::uint32_t n = graph_->num_nodes();
  std::vector<std::vector<RouteAnnouncement>> inbox(n);
  compose_hellos(inbox, stats);

  // Fold announcements per receiving node, in index order.  Node v writes
  // only tables_[v] and reads the (now frozen) inbox and fault clock.
  for (NodeId v = 0; v < n; ++v) {
    const auto [revisions, expired] = absorb_inbox_at(v, inbox);
    stats.revisions += revisions;
    stats.expired += expired;
  }

  UPN_OBS_COUNT("routing.online.steps", 1);
  UPN_OBS_COUNT("routing.online.announcements_sent", stats.announcements);
  UPN_OBS_COUNT("routing.online.table_revisions", stats.revisions);
  UPN_OBS_COUNT("routing.online.entries_expired", stats.expired);
  std::uint64_t total_entries = 0;
  for (const RouteTable& t : tables_) total_entries += t.size();
  UPN_OBS_GAUGE_MAX("routing.online.table_entries_peak", total_entries);
  UPN_ENSURE(now_ == before + 1, "one protocol round advances the clock by one host step");
  return stats;
}

ConvergenceReport OnlineRouter::run_until_stable(std::uint32_t max_rounds) {
  UPN_REQUIRE(max_rounds >= 1, "OnlineRouter: need at least one round to converge");
  ConvergenceReport report;
  std::uint32_t quiet = 0;
  // The quiet window must outlast a full staleness window, not just a hello
  // cycle: a route over a freshly dead link shows NO activity until silence
  // expires it stale_after rounds later, and declaring stability sooner
  // would freeze that corpse into the tables.
  const std::uint32_t quiet_window = stale_after_ + 1;
  while (report.rounds < max_rounds) {
    const OnlineStepStats stats = step();
    ++report.rounds;
    quiet = (stats.revisions == 0 && stats.expired == 0 && !stats.topology_changed)
                ? quiet + 1
                : 0;
    if (quiet >= quiet_window) {
      report.stable = true;
      break;
    }
  }
  UPN_ENSURE(report.rounds <= max_rounds, "convergence respects the round budget");
  return report;
}

OnlineRouteResult OnlineRouter::route(std::vector<Packet> packets, std::uint32_t max_steps) {
  UPN_REQUIRE(max_steps >= 1, "OnlineRouter: need at least one step to route");
  OnlineRouteResult result;
  result.packets = std::move(packets);
  UPN_OBS_COUNT("routing.online.route_calls", 1);
  UPN_OBS_COUNT("routing.online.packets_submitted", result.packets.size());

  const std::uint32_t count = static_cast<std::uint32_t>(result.packets.size());
  std::vector<NodeId> location(count);
  std::vector<std::uint32_t> release(count, 0);  ///< first step a packet may move
  std::vector<std::uint32_t> hops(count, 0);     ///< hops since injection / last TTL trip
  std::uint32_t undelivered = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    Packet& p = result.packets[i];
    p.id = i;
    p.lost = 0;
    p.retries = 0;
    p.delivered_at = -1;
    location[i] = p.src;
    if (p.src == p.dst) {
      p.delivered_at = 0;
      ++result.delivered;
    } else {
      ++undelivered;
    }
  }

  // A packet that cannot move (no route yet, dead link, TTL trip) waits out
  // a seeded jittered exponential backoff rather than spinning; the retry
  // budget and the step ceiling bound the wait, so churn the tables never
  // recover from degrades to per-packet loss instead of livelock.
  const auto backoff = [&](std::uint32_t step_now, Packet& p, std::uint32_t i) {
    ++result.retries;
    ++p.retries;
    if (p.retries > kMaxRetries) {
      p.lost = 1;
      ++result.lost;
      --undelivered;
      return;
    }
    const std::uint32_t shift = std::min<std::uint32_t>(p.retries, 16);
    const std::uint32_t base = std::min(kBackoffCap, kBackoffBase << shift);
    release[i] = step_now + base +
                 jitter(kSeed, 0xb0ffu ^ (std::uint64_t{i} << 20) ^ p.retries, kBackoffBase + 1);
  };

  struct Intent {
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t packet = 0;
  };
  std::vector<Intent> intents;

  std::uint32_t step_now = 0;
  while (undelivered > 0 && step_now < max_steps) {
    // The control plane keeps running underneath the traffic: churn lands,
    // hellos flow, tables adapt, WHILE packets are in flight.
    (void)step();
    ++step_now;

    intents.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      Packet& p = result.packets[i];
      if (p.delivered_at >= 0 || p.lost != 0 || release[i] > step_now) continue;
      const NodeId at = location[i];
      if (!clock_.node_alive(at) || !clock_.node_alive(p.dst)) {
        p.lost = 1;
        ++result.lost;
        --undelivered;
        continue;
      }
      const NodeId next = tables_[at].next_hop(p.dst);
      if (next == kNoRoute || !graph_->has_edge(at, next) || !clock_.node_alive(next) ||
          !clock_.link_alive(at, next)) {
        backoff(step_now, p, i);
        continue;
      }
      intents.push_back(Intent{at, next, i});
    }

    // One packet per directed link per step (the MultiPort model).  Intents
    // were gathered in packet-id order, so scanning in order and granting
    // first-come per (from, to) awards every contested link to the lowest
    // id -- a fixed total order, independent of anything but the inputs.
    std::sort(intents.begin(), intents.end(), [](const Intent& a, const Intent& b) {
      return a.from != b.from ? a.from < b.from
             : a.to != b.to   ? a.to < b.to
                              : a.packet < b.packet;
    });
    const Intent* last = nullptr;
    for (const Intent& intent : intents) {
      if (last != nullptr && last->from == intent.from && last->to == intent.to) {
        continue;  // link busy this step; the loser retries next step, no backoff
      }
      last = &intent;
      Packet& p = result.packets[intent.packet];
      location[intent.packet] = intent.to;
      ++result.transfers;
      ++hops[intent.packet];
      if (intent.to == p.dst) {
        p.delivered_at = step_now;
        ++result.delivered;
        --undelivered;
      } else if (hops[intent.packet] > max_ttl_) {
        // The packet walked too far on stale routes; park it and let the
        // tables settle before it tries again.
        hops[intent.packet] = 0;
        backoff(step_now, p, intent.packet);
      }
    }
  }

  // Step ceiling: whatever is still in flight is accounted lost so callers
  // always get a verdict for every packet (graceful degradation, no throw).
  for (std::uint32_t i = 0; i < count; ++i) {
    Packet& p = result.packets[i];
    if (p.delivered_at < 0 && p.lost == 0) {
      p.lost = 1;
      ++result.lost;
      --undelivered;
    }
  }
  result.steps = step_now;

  UPN_OBS_COUNT("routing.online.transfers", result.transfers);
  UPN_OBS_COUNT("routing.online.packets_delivered", result.delivered);
  UPN_OBS_COUNT("routing.online.packets_lost", result.lost);
  UPN_OBS_COUNT("routing.online.delivery_retries", result.retries);
  UPN_ENSURE(undelivered == 0, "every packet ends delivered or lost");
  UPN_ENSURE(result.delivered + result.lost == result.packets.size(),
             "verdicts partition the packet set");
  return result;
}

}  // namespace upn
