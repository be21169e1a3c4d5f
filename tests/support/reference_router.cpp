// Verbatim preservation of the pre-rewrite SyncRouter::route_impl -- see the
// header for why this code must stay the slow, node-based version.
#include "tests/support/reference_router.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"
#include "tests/support/hop_recorder.hpp"

namespace upn::testing {

ReferenceRouter::ReferenceRouter(const Graph& graph, PortModel port_model)
    : graph_(&graph), port_model_(port_model) {}

namespace {

/// Per-node FIFO queues, one per outgoing port (= neighbor index).
struct NodeState {
  std::vector<std::deque<std::uint32_t>> ports;  // packet indices
  std::uint32_t buffered = 0;
  std::uint32_t rr_cursor = 0;  // round-robin port scan start (single-port)
};

/// A packet waiting out a retransmission backoff at `holder`.
struct DelayedPacket {
  std::uint32_t release_step = 0;
  std::uint32_t packet = 0;
  NodeId holder = 0;
};

constexpr NodeId kNoHop = std::numeric_limits<NodeId>::max();

/// Shortest-path next hops on the LIVE subgraph defined by a FaultClock.
/// Distance vectors are cached per target and invalidated when permanent
/// faults activate (the live subgraph only ever shrinks).
class LiveRouteOracle {
 public:
  explicit LiveRouteOracle(const Graph& graph) : graph_(&graph) {}

  void invalidate() { cache_.clear(); }

  /// Live neighbor of `at` closest to `target`; kNoHop when `target` is
  /// unreachable from `at` in the surviving subgraph.
  [[nodiscard]] NodeId next_hop(const FaultClock& clock, NodeId at, NodeId target,
                                std::uint32_t salt) {
    const std::vector<std::uint32_t>& dist = distances(clock, target);
    if (dist[at] == std::numeric_limits<std::uint32_t>::max()) return kNoHop;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t count = 0;
    for (const NodeId u : graph_->neighbors(at)) {
      if (!clock.link_alive(at, u)) continue;
      if (dist[u] < best) {
        best = dist[u];
        count = 1;
      } else if (dist[u] == best) {
        ++count;
      }
    }
    if (count == 0) return kNoHop;
    const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
    std::uint32_t skip = static_cast<std::uint32_t>(hash % count);
    for (const NodeId u : graph_->neighbors(at)) {
      if (!clock.link_alive(at, u) || dist[u] != best) continue;
      if (skip == 0) return u;
      --skip;
    }
    return kNoHop;
  }

 private:
  const std::vector<std::uint32_t>& distances(const FaultClock& clock, NodeId target) {
    const auto it = cache_.find(target);
    if (it != cache_.end()) return it->second;
    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> dist(graph_->num_nodes(), kInf);
    std::vector<NodeId> frontier;
    if (clock.node_alive(target)) {
      dist[target] = 0;
      frontier.push_back(target);
    }
    std::vector<NodeId> next;
    std::uint32_t level = 0;
    while (!frontier.empty()) {
      ++level;
      next.clear();
      for (const NodeId v : frontier) {
        for (const NodeId u : graph_->neighbors(v)) {
          if (dist[u] == kInf && clock.link_alive(v, u)) {
            dist[u] = level;
            next.push_back(u);
          }
        }
      }
      frontier.swap(next);
    }
    return cache_.emplace(target, std::move(dist)).first->second;
  }

  const Graph* graph_;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> cache_;
};

}  // namespace

RouteResult ReferenceRouter::route(std::vector<Packet> packets, RoutingPolicy& policy,
                                   const TransferSink& sink, std::uint32_t max_steps) {
  return route_impl(std::move(packets), &policy, nullptr, sink, max_steps);
}

RouteResult ReferenceRouter::route_with_faults(std::vector<Packet> packets,
                                               const FaultRouteOptions& faults,
                                               RoutingPolicy* policy, const TransferSink& sink,
                                               std::uint32_t max_steps) {
  if (faults.plan == nullptr) {
    if (policy == nullptr) {
      throw std::invalid_argument{
          "SyncRouter::route_with_faults: need a policy when no plan is given"};
    }
    return route_impl(std::move(packets), policy, nullptr, sink, max_steps);
  }
  return route_impl(std::move(packets), policy, &faults, sink, max_steps);
}

RouteResult ReferenceRouter::route_impl(std::vector<Packet> packets, RoutingPolicy* policy,
                                        const FaultRouteOptions* faults, const TransferSink& sink,
                                        std::uint32_t max_steps) {
  UPN_OBS_SPAN("routing.sync.route");
  UPN_OBS_STEP(0);
  const Graph& g = *graph_;
  const std::uint32_t n = g.num_nodes();
  UPN_OBS_COUNT("routing.sync.route_calls", 1);
  UPN_OBS_COUNT("routing.sync.packets_submitted", packets.size());
  for (const Packet& p : packets) {
    UPN_REQUIRE(p.src < n && p.dst < n, "SyncRouter: packet endpoints must be host nodes");
    UPN_REQUIRE(p.via < n, "SyncRouter: Valiant via must be a host node");
  }
  if (policy != nullptr) policy->prepare(g, packets);

  RouteResult result;
  const bool record_transfers = static_cast<bool>(sink);
  std::vector<Transfer> hops;  // the hop log, when record_transfers
  std::vector<NodeState> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v].ports.resize(g.degree(v));

  std::optional<FaultClock> clock;
  LiveRouteOracle oracle{g};
  std::vector<DelayedPacket> delayed;
  if (faults != nullptr) {
    clock.emplace(*faults->plan, n);
    if (clock->advance(faults->step_offset)) oracle.invalidate();
  }

  // Port index of neighbor `to` within `from`'s sorted adjacency.
  auto port_of = [&g](NodeId from, NodeId to) -> std::uint32_t {
    const auto nbrs = g.neighbors(from);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    if (it == nbrs.end() || *it != to) {
      throw std::logic_error{"SyncRouter: policy returned a non-neighbor" +
                             obs::context_suffix()};
    }
    return static_cast<std::uint32_t>(it - nbrs.begin());
  };

  std::uint32_t undelivered = 0;

  enum class Placement : std::uint8_t { kDelivered, kQueued, kLost };

  // A packet has just arrived (or started, or was re-queued) at `at`:
  // deliver, advance its Valiant phase, or enqueue it on the port the
  // routing decision selects.  `detour` forces the fault-aware oracle even
  // when an external policy is present (used after a policy choice died).
  auto place = [&](std::uint32_t packet_index, NodeId at, bool detour) -> Placement {
    Packet& p = packets[packet_index];
    if (clock && !clock->node_alive(at)) return Placement::kLost;
    if (p.phase == 0 && (at == p.via || (clock && !clock->node_alive(p.via)))) {
      p.phase = 1;  // via reached -- or dead, in which case skip the detour
    }
    if (at == p.dst && p.phase == 1) {
      return Placement::kDelivered;
    }
    if (clock && !clock->node_alive(p.dst)) return Placement::kLost;
    NodeId next = kNoHop;
    if (!clock) {
      next = policy->next_hop(g, at, p);
    } else {
      if (policy != nullptr && !detour) {
        const NodeId choice = policy->next_hop(g, at, p);
        if (clock->link_alive(at, choice)) next = choice;
      }
      if (next == kNoHop) {
        next = oracle.next_hop(*clock, at, p.current_target(), p.id);
        if (next == kNoHop) return Placement::kLost;  // unreachable survivor
      }
    }
    nodes[at].ports[port_of(at, next)].push_back(packet_index);
    ++nodes[at].buffered;
    return Placement::kQueued;
  };

  auto mark_lost = [&](std::uint32_t packet_index) {
    packets[packet_index].lost = 1;
    packets[packet_index].delivered_at = -1;
    ++result.packets_lost;
  };

  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    packets[i].id = i;
    packets[i].delivered_at = -1;
    packets[i].lost = 0;
    packets[i].retries = 0;
    if (packets[i].phase == 1 && packets[i].src == packets[i].dst) {
      if (clock && !clock->node_alive(packets[i].src)) {
        mark_lost(i);
      } else {
        packets[i].delivered_at = 0;
      }
      continue;
    }
    switch (place(i, packets[i].src, false)) {
      case Placement::kDelivered:
        packets[i].delivered_at = 0;
        break;
      case Placement::kQueued:
        ++undelivered;
        break;
      case Placement::kLost:
        mark_lost(i);
        break;
    }
  }
  for (NodeId v = 0; v < n; ++v) result.max_queue = std::max(result.max_queue, nodes[v].buffered);

  std::uint32_t step = 0;

  // Flushes queues invalidated by newly activated permanent faults: queues
  // at dead nodes are lost wholesale; queues on dead ports are re-routed.
  auto apply_epoch = [&]() {
    oracle.invalidate();
    std::vector<std::uint32_t> requeue;
    for (NodeId v = 0; v < n; ++v) {
      if (nodes[v].buffered == 0) continue;
      const auto nbrs = g.neighbors(v);
      if (!clock->node_alive(v)) {
        for (auto& queue : nodes[v].ports) {
          for (const std::uint32_t packet_index : queue) {
            mark_lost(packet_index);
            --undelivered;
          }
          queue.clear();
        }
        nodes[v].buffered = 0;
        continue;
      }
      for (std::uint32_t port = 0; port < nbrs.size(); ++port) {
        if (clock->link_alive(v, nbrs[port])) continue;
        auto& queue = nodes[v].ports[port];
        while (!queue.empty()) {
          requeue.push_back(queue.front());
          queue.pop_front();
          --nodes[v].buffered;
        }
        for (const std::uint32_t packet_index : requeue) {
          ++result.reroutes;
          ++packets[packet_index].retries;
          switch (place(packet_index, v, true)) {
            case Placement::kDelivered:  // via skipped and v == dst
              packets[packet_index].delivered_at = step;
              --undelivered;
              break;
            case Placement::kQueued:
              break;
            case Placement::kLost:
              mark_lost(packet_index);
              --undelivered;
              break;
          }
        }
        requeue.clear();
      }
    }
  };

  std::vector<std::pair<std::uint32_t, NodeId>> arrivals;  // (packet, node)
  std::vector<char> busy(n, 0);
  while (undelivered > 0) {
    UPN_OBS_SET_STEP(step);
    if (step >= max_steps) {
      throw std::runtime_error{"SyncRouter::route: step limit exceeded (livelock?)" +
                               obs::context_suffix()};
    }
    const std::uint32_t global_step = faults == nullptr ? step : faults->step_offset + step;
    if (clock && clock->advance(global_step)) apply_epoch();

    // Release packets whose retransmission backoff expired.
    if (!delayed.empty()) {
      std::size_t kept = 0;
      for (const DelayedPacket& d : delayed) {
        if (d.release_step > step) {
          delayed[kept++] = d;
          continue;
        }
        switch (place(d.packet, d.holder, false)) {
          case Placement::kDelivered:
            packets[d.packet].delivered_at = step;
            --undelivered;
            break;
          case Placement::kQueued:
            break;
          case Placement::kLost:
            mark_lost(d.packet);
            --undelivered;
            break;
        }
      }
      delayed.resize(kept);
    }

    arrivals.clear();

    // Selects the transfer (v --port--> w, packet) for this step, honoring
    // transient drop windows: a dropped transfer consumes the link (and, in
    // the single-port model, both endpoints' operations) but the packet is
    // lost in flight and retransmitted by the sender after a backoff.
    auto move_packet = [&](NodeId v, std::uint32_t port, NodeId w) {
      auto& queue = nodes[v].ports[port];
      const std::uint32_t packet_index = queue.front();
      queue.pop_front();
      --nodes[v].buffered;
      ++result.total_transfers;
      const bool dropped = clock && clock->drops_packet(v, w, packets[packet_index].id);
      if (record_transfers) {
        hops.push_back(
            Transfer{step, v, w, packet_index,
                     // Bool to byte, range {0,1}:
                     static_cast<std::uint8_t>(dropped ? 1 : 0)});  // upn-analyze-waive(narrowing-cast: bool to byte)
      }
      if (!dropped) {
        arrivals.emplace_back(packet_index, w);
        return;
      }
      ++result.retransmissions;
      Packet& p = packets[packet_index];
      ++p.retries;
      if (faults != nullptr && p.retries > faults->max_retries) {
        mark_lost(packet_index);
        --undelivered;
        return;
      }
      const std::uint32_t shift = std::min<std::uint32_t>(p.retries, 6u);
      const std::uint32_t backoff = faults == nullptr ? 1u : kBackoffBase << shift;
      UPN_OBS_COUNT("routing.sync.backoff_delays", 1);
      UPN_OBS_HIST("routing.sync.backoff_steps", backoff);
      delayed.push_back(DelayedPacket{step + backoff, packet_index, v});
    };

    if (port_model_ == PortModel::kMultiPort) {
      // Every directed link moves one packet.
      for (NodeId v = 0; v < n; ++v) {
        if (nodes[v].buffered == 0) continue;
        const auto nbrs = g.neighbors(v);
        for (std::uint32_t port = 0; port < nbrs.size(); ++port) {
          if (nodes[v].ports[port].empty()) continue;
          move_packet(v, port, nbrs[port]);
        }
      }
    } else {
      // Single-port: transfers form a matching; a node either sends or
      // receives.  Greedy maximal matching with a rotating scan start for
      // fairness.
      std::fill(busy.begin(), busy.end(), 0);
      const NodeId offset = static_cast<NodeId>(step % std::max(1u, n));
      for (std::uint32_t scan = 0; scan < n; ++scan) {
        const NodeId v = static_cast<NodeId>((scan + offset) % n);
        if (busy[v] || nodes[v].buffered == 0) continue;
        const auto nbrs = g.neighbors(v);
        const std::uint32_t degree = static_cast<std::uint32_t>(nbrs.size());
        // Round-robin over ports so no queue starves.
        for (std::uint32_t offs = 0; offs < degree; ++offs) {
          const std::uint32_t port = (nodes[v].rr_cursor + offs) % degree;
          if (nodes[v].ports[port].empty() || busy[nbrs[port]]) continue;
          busy[v] = 1;
          busy[nbrs[port]] = 1;
          nodes[v].rr_cursor = (port + 1) % degree;
          move_packet(v, port, nbrs[port]);
          break;
        }
      }
    }

    for (const auto& [packet_index, at] : arrivals) {
      switch (place(packet_index, at, false)) {
        case Placement::kDelivered:
          packets[packet_index].delivered_at = step + 1;
          --undelivered;
          break;
        case Placement::kQueued:
          break;
        case Placement::kLost:
          mark_lost(packet_index);
          --undelivered;
          break;
      }
    }
    std::uint32_t step_max_queue = 0;
    for (NodeId v = 0; v < n; ++v) {
      step_max_queue = std::max(step_max_queue, nodes[v].buffered);
    }
    result.max_queue = std::max(result.max_queue, step_max_queue);
    // Queue-depth-per-step distribution: bucket adds commute, so the merged
    // histogram is identical for serial and pool-swept callers.
    UPN_OBS_HIST("routing.sync.step_max_queue", step_max_queue);
    ++step;
  }

  result.steps = step;
  result.packets = std::move(packets);
  if (record_transfers) {
    // The log, one router step per sink call, empty steps included.
    std::size_t cursor = 0;
    for (std::uint32_t s = 0; s < result.steps; ++s) {
      const std::size_t begin = cursor;
      while (cursor < hops.size() && hops[cursor].step == s) ++cursor;
      sink(std::span<const Transfer>{hops.data() + begin, cursor - begin});
    }
  }
  UPN_ENSURE(result.steps <= max_steps, "router must respect its step budget");
  std::uint64_t delivered = 0;
  for (const Packet& p : result.packets) {
    if (p.delivered_at >= 0) ++delivered;
  }
  UPN_ENSURE(delivered + result.packets_lost == result.packets.size(),
             "every packet is delivered or accounted lost");
  UPN_ENSURE(faults != nullptr || result.packets_lost == 0,
             "fault-free routing cannot lose packets");
  UPN_OBS_COUNT("routing.sync.steps", result.steps);
  UPN_OBS_COUNT("routing.sync.transfers", result.total_transfers);
  UPN_OBS_COUNT("routing.sync.retransmissions", result.retransmissions);
  UPN_OBS_COUNT("routing.sync.reroutes", result.reroutes);
  UPN_OBS_COUNT("routing.sync.packets_lost", result.packets_lost);
  UPN_OBS_GAUGE_MAX("routing.sync.max_queue_depth", result.max_queue);
  return result;
}

std::string dump_route_result(const RouteResult& result, const HopRecorder* streamed) {
  std::ostringstream os;
  os << "steps=" << result.steps << " total_transfers=" << result.total_transfers
     << " max_queue=" << result.max_queue << " packets_lost=" << result.packets_lost
     << " retransmissions=" << result.retransmissions << " reroutes=" << result.reroutes
     << "\n";
  for (const Packet& p : result.packets) {
    os << "packet id=" << p.id << " src=" << p.src << " dst=" << p.dst << " via=" << p.via
       << " phase=" << static_cast<int>(p.phase) << " lost=" << static_cast<int>(p.lost)
       << " retries=" << p.retries << " payload=" << p.payload << " tag=" << p.tag
       << " tag2=" << p.tag2 << " delivered_at=" << p.delivered_at << "\n";
  }
  if (streamed == nullptr) return os.str();
  os << "streamed steps=" << streamed->steps().size() << "\n";
  for (std::size_t s = 0; s < streamed->steps().size(); ++s) {
    os << "router step " << s << "\n";
    for (const Transfer& t : streamed->steps()[s]) {
      os << "transfer step=" << t.step << " from=" << t.from << " to=" << t.to
         << " packet=" << t.packet << " dropped=" << static_cast<int>(t.dropped) << "\n";
    }
  }
  return os.str();
}

}  // namespace upn::testing
