// Data-oriented fast-path packet engine (docs/ROUTER_ENGINE.md).
//
// This is the rewrite of the node-based store-and-forward loop that ROADMAP
// item 1 calls for: the per-step state lives in flat arrays indexed by node,
// directed-link slot, and packet -- no per-node containers, no allocation
// inside the step loop, no adjacency span construction per query.
//
//  * CSR view      The router caches the Graph's flat offset/adjacency
//                  arrays once at construction; every kernel walks raw
//                  pointers (`off[v] .. off[v+1]` delimits v's ports).
//  * SoA packets   Hot packet fields (dst/via/phase/current target/retries)
//                  are split into parallel arrays; the cold Packet structs
//                  are only touched on rare events (phase flip, loss,
//                  delivery) and synced back before returning.
//  * Flat queues   The per-(node, port) FIFO is an intrusive linked list
//                  threaded through one `qnext` array -- a packet sits in at
//                  most one port queue at a time -- with head/tail cursors
//                  per directed-link slot.  push/pop are two array writes.
//  * Step kernels  The MultiPort kernel is a branch-light sweep over the
//                  occupied slots of occupied nodes; the SinglePort matching
//                  pass batches the greedy maximal matching over flat busy /
//                  buffered / round-robin-cursor arrays.
//  * Route memo    A fault-free GreedyPolicy call with the previous call's
//                  endpoints replays the stored schedule instead of running
//                  the step loop (docs/ROUTER_ENGINE.md, "Route memo").
//  * Transfer sink Each step's transfers go to the caller's sink at the end
//                  of the step, from one reused buffer; no hop log is kept.
//
// The engine is bit-identical to the pre-rewrite implementation, which is
// preserved verbatim as tests/support/reference_router.{hpp,cpp}: the
// differential suites (tests/router_differential_test.cpp and the fuzzer in
// tests/router_fuzz_test.cpp) execute both engines on identical inputs and
// assert equal RouteResults and equal streamed transfers, and the golden
// `routing.sync.*` snapshots pin every counter byte-for-byte.  Any change
// here must keep the placement order, matching order, tie-breaking, and obs
// instrumentation sequence exactly as the reference computes them.
#include "src/routing/router.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "src/fault/fault_plan.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/hh_problem.hpp"
#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace upn {

void RoutingPolicy::prepare(const Graph& /*graph*/, std::vector<Packet>& /*packets*/) {}

SyncRouter::SyncRouter(const Graph& graph, PortModel port_model)
    : graph_(&graph), port_model_(port_model) {
  // CSR view, materialized once per router: raw pointers into the graph's
  // flat offset/adjacency storage (the Graph outlives the router by
  // contract, as before).
  csr_offsets_ = graph.offsets().data();
  csr_adjacency_ = graph.adjacency().data();
  csr_slots_ = static_cast<std::uint32_t>(graph.adjacency().size());
}

namespace {

/// A packet waiting out a retransmission backoff at `holder`.
struct DelayedPacket {
  std::uint32_t release_step = 0;
  std::uint32_t packet = 0;
  NodeId holder = 0;
};

constexpr NodeId kNoHop = std::numeric_limits<NodeId>::max();
constexpr std::uint32_t kNoIndex = 0xffffffffu;

/// Shortest-path next hops on the LIVE subgraph defined by a FaultClock.
/// Distance vectors are cached per target and invalidated when permanent
/// faults activate (the live subgraph only ever shrinks).  Walks the flat
/// CSR arrays directly.
class LiveRouteOracle {
 public:
  LiveRouteOracle(const std::uint32_t* offsets, const NodeId* adjacency,
                  std::uint32_t num_nodes)
      : off_(offsets), adj_(adjacency), n_(num_nodes) {}

  void invalidate() { cache_.clear(); }

  /// Live neighbor of `at` closest to `target`; kNoHop when `target` is
  /// unreachable from `at` in the surviving subgraph.
  [[nodiscard]] NodeId next_hop(const FaultClock& clock, NodeId at, NodeId target,
                                std::uint32_t salt) {
    const std::vector<std::uint32_t>& dist = distances(clock, target);
    if (dist[at] == std::numeric_limits<std::uint32_t>::max()) return kNoHop;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t count = 0;
    NodeId first = kNoHop;
    for (std::uint32_t slot = off_[at]; slot < off_[at + 1]; ++slot) {
      const NodeId u = adj_[slot];
      if (!clock.link_alive(at, u)) continue;
      if (dist[u] < best) {
        best = dist[u];
        count = 1;
        first = u;
      } else if (dist[u] == best) {
        ++count;
      }
    }
    if (count == 0) return kNoHop;
    if (count == 1) return first;  // hash % 1 == 0: the sole minimizer wins
    const std::uint64_t hash = mix64((static_cast<std::uint64_t>(salt) << 32) | at);
    std::uint32_t skip = static_cast<std::uint32_t>(hash % count);
    for (std::uint32_t slot = off_[at]; slot < off_[at + 1]; ++slot) {
      const NodeId u = adj_[slot];
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
    std::vector<std::uint32_t> dist(n_, kInf);
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
        for (std::uint32_t slot = off_[v]; slot < off_[v + 1]; ++slot) {
          const NodeId u = adj_[slot];
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

  const std::uint32_t* off_;
  const NodeId* adj_;
  std::uint32_t n_;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> cache_;
};

}  // namespace

RouteResult SyncRouter::route(std::vector<Packet> packets, RoutingPolicy& policy,
                              const TransferSink& sink, std::uint32_t max_steps) {
  return route_impl(std::move(packets), &policy, nullptr, sink, max_steps);
}

RouteResult SyncRouter::route_with_faults(std::vector<Packet> packets,
                                          const FaultRouteOptions& faults,
                                          const TransferSink& sink, std::uint32_t max_steps) {
  if (faults.plan == nullptr) {
    throw std::invalid_argument{"SyncRouter::route_with_faults: need a fault plan"};
  }
  return route_impl(std::move(packets), nullptr, &faults, sink, max_steps);
}

bool SyncRouter::memo_matches(const std::vector<Packet>& packets, const RoutingPolicy* policy,
                              std::uint32_t max_steps) const {
  const RouteMemo& m = memo_;
  if (m.policy == nullptr || m.policy != policy || packets.size() != m.endpoints.size()) {
    return false;
  }
  if (m.step_max_queue.size() > max_steps) return false;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].src != m.endpoints[i].first || packets[i].dst != m.endpoints[i].second) {
      return false;
    }
  }
  return true;
}

RouteResult SyncRouter::replay_memo(std::vector<Packet> packets) const {
  const RouteMemo& m = memo_;
  RouteResult result;
  result.steps = static_cast<std::uint32_t>(m.step_max_queue.size());
  result.total_transfers = m.total_transfers;
  result.max_queue = m.max_queue;
  result.replayed = true;
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    packets[i].id = i;
    packets[i].lost = 0;
    packets[i].retries = 0;
    packets[i].delivered_at = m.delivered_at[i];
  }
  result.packets = std::move(packets);
  for (const std::uint32_t queue : m.step_max_queue) {
    UPN_OBS_HIST("routing.sync.step_max_queue", queue);
  }
  UPN_OBS_COUNT("routing.sync.memo_hits", 1);
  return result;
}

void SyncRouter::remember_route(const RouteResult& result, const RoutingPolicy* policy,
                                std::vector<std::uint32_t> step_log) {
  RouteMemo& m = memo_;
  m.policy = policy;
  m.endpoints.resize(result.packets.size());
  m.delivered_at.resize(result.packets.size());
  for (std::size_t i = 0; i < result.packets.size(); ++i) {
    const Packet& p = result.packets[i];
    m.endpoints[i] = {p.src, p.dst};
    // Fault-free routing delivers every packet, within max_steps < 2^32.
    m.delivered_at[i] = static_cast<std::uint32_t>(p.delivered_at);
  }
  m.step_max_queue = std::move(step_log);
  m.total_transfers = result.total_transfers;
  m.max_queue = result.max_queue;
}

RouteResult SyncRouter::route_impl(std::vector<Packet> packets, RoutingPolicy* policy,
                                   const FaultRouteOptions* faults, const TransferSink& sink,
                                   std::uint32_t max_steps) {
  UPN_OBS_SPAN("routing.sync.route");
  UPN_OBS_STEP(0);
  const std::uint32_t n = graph_->num_nodes();
  UPN_OBS_COUNT("routing.sync.route_calls", 1);
  UPN_OBS_COUNT("routing.sync.packets_submitted", packets.size());
  for (const Packet& p : packets) {
    UPN_REQUIRE(p.src < n && p.dst < n, "SyncRouter: packet endpoints must be host nodes");
    UPN_REQUIRE(p.via < n, "SyncRouter: Valiant via must be a host node");
  }
  if (policy != nullptr) policy->prepare(*graph_, packets);

  // Route memo (docs/ROUTER_ENGINE.md): only a fault-free GreedyPolicy route
  // with every packet heading straight for its destination is a function of
  // the endpoints alone.  A memoizable miss releases the old memo first and
  // builds the new one after the kernel's scratch arrays are gone.
  const bool memoizable =
      faults == nullptr && dynamic_cast<const GreedyPolicy*>(policy) != nullptr &&
      std::all_of(packets.begin(), packets.end(), [](const Packet& p) { return p.phase == 1; });
  RouteResult result;
  if (!memoizable) {
    result = run_steps(std::move(packets), policy, faults, sink, max_steps, nullptr);
  } else if (memo_matches(packets, policy, max_steps)) {
    result = replay_memo(std::move(packets));
  } else {
    memo_ = RouteMemo{};
    std::vector<std::uint32_t> step_log;
    result = run_steps(std::move(packets), policy, faults, sink, max_steps, &step_log);
    remember_route(result, policy, std::move(step_log));
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

RouteResult SyncRouter::run_steps(std::vector<Packet> packets, RoutingPolicy* policy,
                                  const FaultRouteOptions* faults, const TransferSink& sink,
                                  std::uint32_t max_steps, std::vector<std::uint32_t>* step_log) {
  const Graph& g = *graph_;
  const std::uint32_t n = g.num_nodes();
  const std::uint32_t num_packets = static_cast<std::uint32_t>(packets.size());
  const std::uint32_t* off = csr_offsets_;
  const NodeId* adj = csr_adjacency_;

  RouteResult result;
  // This step's transfers, handed to the sink when the step ends.
  const bool streaming = static_cast<bool>(sink);
  std::vector<Transfer> step_hops;

  // Per-(node, port) FIFO queues as one intrusive linked list: slot s is the
  // directed link adj[s] out of its owning node; each slot carries its
  // head/tail cursor pair on one 8-byte record (so push and pop touch one
  // cache line) and qnext threads the waiting packets.  A packet is in at
  // most one port queue at a time, so one next-pointer array suffices.
  struct QueueEnds {
    std::uint32_t head;
    std::uint32_t tail;
  };
  std::vector<QueueEnds> queue(csr_slots_, QueueEnds{kNoIndex, kNoIndex});
  std::vector<std::uint32_t> qnext(num_packets, kNoIndex);
  std::vector<std::uint32_t> buffered(n, 0);   // packets queued per node
  std::vector<std::uint32_t> rr_cursor(n, 0);  // round-robin port scan start

  static_assert(sizeof(Packet) == 48, "the cold Packet record is 48 bytes");
  // Structure-of-arrays packet state: the hot fields the kernels touch every
  // hop, split out of the cold 48-byte Packet records.  `target` caches the
  // phase-dependent destination so placement never re-derives it; `phase`
  // flips are written through to the Packet (policies read it), every other
  // hot field is synced back once at the end.
  std::vector<NodeId> pk_dst(num_packets);
  std::vector<NodeId> pk_via(num_packets);
  std::vector<NodeId> pk_target(num_packets);
  std::vector<std::uint8_t> pk_phase(num_packets);
  std::vector<std::uint16_t> pk_retries(num_packets, 0);
  for (std::uint32_t i = 0; i < num_packets; ++i) {
    Packet& p = packets[i];
    p.id = i;
    p.delivered_at = -1;
    p.lost = 0;
    p.retries = 0;
    pk_dst[i] = p.dst;
    pk_via[i] = p.via;
    pk_phase[i] = p.phase;
    pk_target[i] = p.phase == 0 ? p.via : p.dst;
  }

  // Devirtualized routing decision: the stock greedy/Valiant policies both
  // reduce to greedy_next_port over their distance oracle, and its port
  // result names the directed-link slot for free (graphs are simple, so a
  // neighbor's port is unique).  Equivalent to policy->next_hop() followed
  // by slot_of() -- GreedyPolicy/ValiantPolicy::next_hop are exactly
  // greedy_next_hop(g, oracle, at, packet.current_target(), packet.id), and
  // pk_target / the loop index mirror current_target() / id.
  DistanceOracle* direct_oracle = nullptr;
  if (auto* greedy = dynamic_cast<GreedyPolicy*>(policy)) {
    direct_oracle = &greedy->oracle();
  } else if (auto* valiant = dynamic_cast<ValiantPolicy*>(policy)) {
    direct_oracle = &valiant->oracle();
  }

  std::optional<FaultClock> clock;
  LiveRouteOracle oracle{off, adj, n};
  std::vector<DelayedPacket> delayed;
  if (faults != nullptr) {
    clock.emplace(*faults->plan, n);
    if (clock->advance(faults->step_offset)) oracle.invalidate();
  }

  // Directed-link slot of neighbor `to` within `from`'s sorted CSR slice.
  // Host degrees are small constants, so a linear scan beats binary search.
  auto slot_of = [&](NodeId from, NodeId to) -> std::uint32_t {
    for (std::uint32_t slot = off[from]; slot < off[from + 1]; ++slot) {
      if (adj[slot] == to) return slot;
    }
    throw std::logic_error{"SyncRouter: policy returned a non-neighbor" +
                           obs::context_suffix()};
  };

  auto enqueue = [&](NodeId at, std::uint32_t slot, std::uint32_t packet_index) {
    qnext[packet_index] = kNoIndex;
    QueueEnds& q = queue[slot];
    if (q.tail == kNoIndex) {
      q.head = packet_index;
    } else {
      qnext[q.tail] = packet_index;
    }
    q.tail = packet_index;
    ++buffered[at];
  };

  auto pop_front = [&](NodeId at, std::uint32_t slot) -> std::uint32_t {
    QueueEnds& q = queue[slot];
    const std::uint32_t packet_index = q.head;
    q.head = qnext[packet_index];
    if (q.head == kNoIndex) q.tail = kNoIndex;
    --buffered[at];
    return packet_index;
  };

  std::uint32_t undelivered = 0;

  enum class Placement : std::uint8_t { kDelivered, kQueued, kLost };

  // A packet has just arrived (or started, or was re-queued) at `at`:
  // deliver, advance its Valiant phase, or enqueue it on the port the
  // routing decision selects: the policy without faults, the live-subgraph
  // oracle under a fault plan.  The fast path reads the hot fields through
  // the one Packet cache line the policy call is about to touch anyway; the
  // SoA mirrors are kept in sync on phase flips and drive the fault-aware
  // branches (epoch requeues, the oracle, retry budgets), where their
  // batched layout pays off.
  auto place = [&](std::uint32_t packet_index, NodeId at) -> Placement {
    if (clock && !clock->node_alive(at)) return Placement::kLost;
    Packet& p = packets[packet_index];
    if (p.phase == 0 &&
        (at == pk_via[packet_index] || (clock && !clock->node_alive(pk_via[packet_index])))) {
      pk_phase[packet_index] = 1;  // via reached -- or dead: skip the detour
      pk_target[packet_index] = pk_dst[packet_index];
      p.phase = 1;  // write-through: policies read phase
    }
    if (at == p.dst && p.phase == 1) {
      return Placement::kDelivered;
    }
    NodeId next = kNoHop;
    if (!clock) {
      if (direct_oracle != nullptr) {
        const std::uint32_t port =
            greedy_next_port(g, *direct_oracle, at, pk_target[packet_index], packet_index);
        enqueue(at, off[at] + port, packet_index);
        return Placement::kQueued;
      }
      next = policy->next_hop(g, at, p);
    } else {
      if (!clock->node_alive(pk_dst[packet_index])) return Placement::kLost;
      next = oracle.next_hop(*clock, at, pk_target[packet_index], packet_index);
      if (next == kNoHop) return Placement::kLost;  // unreachable survivor
    }
    enqueue(at, slot_of(at, next), packet_index);
    return Placement::kQueued;
  };

  auto mark_lost = [&](std::uint32_t packet_index) {
    packets[packet_index].lost = 1;
    packets[packet_index].delivered_at = -1;
    ++result.packets_lost;
  };

  for (std::uint32_t i = 0; i < num_packets; ++i) {
    if (pk_phase[i] == 1 && packets[i].src == pk_dst[i]) {
      if (clock && !clock->node_alive(packets[i].src)) {
        mark_lost(i);
      } else {
        packets[i].delivered_at = 0;
      }
      continue;
    }
    switch (place(i, packets[i].src)) {
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
  for (NodeId v = 0; v < n; ++v) result.max_queue = std::max(result.max_queue, buffered[v]);

  std::uint32_t step = 0;

  // Flushes queues invalidated by newly activated permanent faults: queues
  // at dead nodes are lost wholesale; queues on dead ports are re-routed.
  std::vector<std::uint32_t> requeue;
  auto apply_epoch = [&]() {
    oracle.invalidate();
    for (NodeId v = 0; v < n; ++v) {
      if (buffered[v] == 0) continue;
      if (!clock->node_alive(v)) {
        for (std::uint32_t slot = off[v]; slot < off[v + 1]; ++slot) {
          while (queue[slot].head != kNoIndex) {
            mark_lost(pop_front(v, slot));
            --undelivered;
          }
        }
        continue;
      }
      for (std::uint32_t slot = off[v]; slot < off[v + 1]; ++slot) {
        if (clock->link_alive(v, adj[slot])) continue;
        while (queue[slot].head != kNoIndex) requeue.push_back(pop_front(v, slot));
        for (const std::uint32_t packet_index : requeue) {
          ++result.reroutes;
          ++pk_retries[packet_index];
          switch (place(packet_index, v)) {
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
        switch (place(d.packet, d.holder)) {
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

    // Selects the transfer (v --slot--> w, packet) for this step, honoring
    // transient drop windows: a dropped transfer consumes the link (and, in
    // the single-port model, both endpoints' operations) but the packet is
    // lost in flight and retransmitted by the sender after a backoff.
    auto move_packet = [&](NodeId v, std::uint32_t slot, NodeId w) {
      const std::uint32_t packet_index = pop_front(v, slot);
      ++result.total_transfers;
      const bool dropped = clock && clock->drops_packet(v, w, packet_index);
      if (streaming) {
        step_hops.push_back(
            Transfer{step, v, w, packet_index,
                     // Bool to byte, range {0,1}:
                     static_cast<std::uint8_t>(dropped ? 1 : 0)});  // upn-analyze-waive(narrowing-cast: bool to byte)
      }
      if (!dropped) {
#if defined(__GNUC__) || defined(__clang__)
        // The arrival pass (after this kernel sweep) reads this packet's
        // record; fetching it now overlaps the miss with the rest of the
        // sweep instead of stalling the placement loop.
        __builtin_prefetch(&packets[packet_index]);
#endif
        arrivals.emplace_back(packet_index, w);
        return;
      }
      ++result.retransmissions;
      ++pk_retries[packet_index];
      if (faults != nullptr && pk_retries[packet_index] > faults->max_retries) {
        mark_lost(packet_index);
        --undelivered;
        return;
      }
      const std::uint32_t shift = std::min<std::uint32_t>(pk_retries[packet_index], 6u);
      const std::uint32_t backoff = faults == nullptr ? 1u : kBackoffBase << shift;
      UPN_OBS_COUNT("routing.sync.backoff_delays", 1);
      UPN_OBS_HIST("routing.sync.backoff_steps", backoff);
      delayed.push_back(DelayedPacket{step + backoff, packet_index, v});
    };

    if (port_model_ == PortModel::kMultiPort) {
      // MultiPort kernel: every occupied directed-link slot of every
      // occupied node moves its head packet -- a single branch-light sweep
      // over the flat queue-cursor array in CSR order.
      for (NodeId v = 0; v < n; ++v) {
        if (buffered[v] == 0) continue;
        const std::uint32_t hi = off[v + 1];
        for (std::uint32_t slot = off[v]; slot < hi; ++slot) {
          if (queue[slot].head == kNoIndex) continue;
          move_packet(v, slot, adj[slot]);
        }
      }
    } else {
      // SinglePort matching pass: transfers form a matching; a node either
      // sends or receives.  Greedy maximal matching with a rotating scan
      // start for fairness, batched over the flat busy/buffered/rr arrays.
      std::fill(busy.begin(), busy.end(), 0);
      // Rotations below are increment-and-wrap rather than modulo: this loop
      // runs n times per step and integer division would dominate it.
      NodeId v = static_cast<NodeId>(step % std::max(1u, n));
      for (std::uint32_t scan = 0; scan < n; ++scan, v = (v + 1 == n ? 0 : v + 1)) {
        if (busy[v] || buffered[v] == 0) continue;
        const std::uint32_t lo = off[v];
        const std::uint32_t degree = off[v + 1] - lo;
        // Round-robin over ports so no queue starves.
        std::uint32_t port = rr_cursor[v];
        for (std::uint32_t offs = 0; offs < degree;
             ++offs, port = (port + 1 == degree ? 0 : port + 1)) {
          const std::uint32_t slot = lo + port;
          if (queue[slot].head == kNoIndex || busy[adj[slot]]) continue;
          busy[v] = 1;
          busy[adj[slot]] = 1;
          rr_cursor[v] = (port + 1 == degree ? 0 : port + 1);
          move_packet(v, slot, adj[slot]);
          break;
        }
      }
    }

    for (const auto& [packet_index, at] : arrivals) {
      switch (place(packet_index, at)) {
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
      step_max_queue = std::max(step_max_queue, buffered[v]);
    }
    result.max_queue = std::max(result.max_queue, step_max_queue);
    // Queue-depth-per-step distribution: bucket adds commute, so the merged
    // histogram is identical for serial and pool-swept callers.
    UPN_OBS_HIST("routing.sync.step_max_queue", step_max_queue);
    if (step_log != nullptr) step_log->push_back(step_max_queue);
    if (streaming) {
      sink(step_hops);
      step_hops.clear();
    }
    ++step;
  }

  result.steps = step;
  for (std::uint32_t i = 0; i < num_packets; ++i) packets[i].retries = pk_retries[i];
  result.packets = std::move(packets);
  return result;
}

RouteTimeEstimate measure_route_time(const Graph& host, std::uint32_t h,
                                     RoutingPolicy& policy, PortModel port_model,
                                     std::uint32_t instances, Rng& rng) {
  UPN_REQUIRE(h >= 1 && instances >= 1, "measure_route_time: h and instances must be >= 1");
  SyncRouter router{host, port_model};
  RouteTimeEstimate estimate;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < instances; ++i) {
    const HhProblem problem = random_h_relation(host.num_nodes(), h, rng);
    std::vector<Packet> packets;
    packets.reserve(problem.size());
    for (const Demand& d : problem.demands()) {
      Packet p;
      p.src = d.src;
      p.dst = d.dst;
      p.via = d.dst;
      packets.push_back(p);
    }
    const RouteResult result = router.route(std::move(packets), policy);
    estimate.worst_steps = std::max(estimate.worst_steps, result.steps);
    sum += result.steps;
  }
  estimate.mean_steps = sum / instances;
  return estimate;
}

}  // namespace upn
