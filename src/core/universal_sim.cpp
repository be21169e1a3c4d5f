#include "src/core/universal_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/embedding.hpp"
#include "src/obs/obs.hpp"
#include "src/routing/policies.hpp"
#include "src/util/contracts.hpp"

namespace upn {

UniversalSimulator::UniversalSimulator(const Graph& guest, const Graph& host,
                                       std::vector<NodeId> embedding)
    : guest_(&guest), host_(&host), embedding_(std::move(embedding)) {
  UPN_OBS_SPAN("sim.universal.embed");
  if (embedding_.size() != guest.num_nodes()) {
    throw std::invalid_argument{"UniversalSimulator: embedding size != guest size"};
  }
  guests_of_ = invert_embedding(embedding_, host.num_nodes());
  load_ = embedding_load(embedding_, host.num_nodes());
  // Theorem 2.1's starting point: every host gets at most ceil(n/m) guests,
  // so load * m must cover the guest set.
  UPN_ENSURE(static_cast<std::uint64_t>(load_) * host.num_nodes() >= guest.num_nodes(),
             "embedding load must cover all guests");
  UPN_OBS_GAUGE_MAX("sim.universal.embedding_load", load_);
}

UniversalSimulator::~UniversalSimulator() = default;

UniversalSimResult UniversalSimulator::run(std::uint32_t guest_steps,
                                           const UniversalSimOptions& options) {
  UPN_OBS_SPAN("sim.universal.run");
  const Graph& guest = *guest_;
  const Graph& host = *host_;
  const std::uint32_t n = guest.num_nodes();

  RoutingPolicy* policy = options.policy;
  if (policy == nullptr) {
    // Lazily built once per simulator, not per run: the greedy policy's BFS
    // distance tables depend only on the host graph, so repeated runs reuse
    // them instead of re-deriving every destination's distances.
    if (default_policy_ == nullptr) default_policy_ = std::make_unique<GreedyPolicy>(host);
    policy = default_policy_.get();
  }
  SyncRouter router{host, options.port_model};

  UniversalSimResult result;
  result.guest_steps = guest_steps;
  result.load = load_;
  if (options.emit_protocol) {
    if (options.port_model != PortModel::kSinglePort) {
      // Multiport transfers are not matchings, so they cannot be expressed
      // as one-operation-per-processor pebble steps.
      throw std::invalid_argument{
          "UniversalSimulator: protocol emission requires the single-port model"};
    }
    result.protocol.emplace(n, host.num_nodes(), guest_steps);
  }

  // Current guest configurations (time t-1 while simulating step t).
  std::vector<Config> configs(n), next(n);
  for (NodeId u = 0; u < n; ++u) configs[u] = initial_config(options.seed, u);

  // Routed configurations for the current step, flat on the guest's CSR
  // directed-edge slots: slot s in guest_off[v]..guest_off[v+1] holds the
  // configuration sent to v by its neighbor guest_adj[s].
  const std::uint32_t* guest_off = guest.offsets().data();
  const NodeId* guest_adj = guest.adjacency().data();
  std::vector<Config> received(guest.adjacency().size());
  std::vector<char> received_ok(guest.adjacency().size(), 0);
  std::vector<NodeId> sender_of;  ///< packet index -> sending guest (emission only)
  // Directed guest edge (v <- u) to v's CSR slot for u.
  auto slot_in = [&](NodeId v, NodeId u) -> std::uint32_t {
    const NodeId* first = guest_adj + guest_off[v];
    const NodeId* last = guest_adj + guest_off[v + 1];
    return guest_off[v] + static_cast<std::uint32_t>(std::lower_bound(first, last, u) - first);
  };

  for (std::uint32_t t = 1; t <= guest_steps; ++t) {
    UPN_OBS_STEP(t);
    // ---- Phase 1: communication (the h-h routing of Theorem 2.1). ----
    std::uint32_t comm_steps_t = 0;
    {
    UPN_OBS_SPAN("sim.universal.route");
    std::vector<Packet> packets;
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : guest.neighbors(u)) {
        if (embedding_[u] == embedding_[v]) continue;
        Packet p;
        p.src = embedding_[u];
        p.dst = embedding_[v];
        p.via = p.dst;
        p.payload = configs[u];
        p.tag = u;
        p.tag2 = v;
        packets.push_back(p);
      }
    }
    result.packets_routed += packets.size();
    UPN_OBS_COUNT("sim.universal.packets_routed", packets.size());
    std::fill(received_ok.begin(), received_ok.end(), 0);

    if (!packets.empty()) {
      const bool log_transfers = options.emit_protocol;
      const RouteResult routed = router.route(std::move(packets), *policy, log_transfers);
      comm_steps_t = routed.steps;
      UPN_INVARIANT(routed.packets_lost == 0,
                    "fault-free routing must deliver every packet");
      for (const Packet& p : routed.packets) {
        const std::uint32_t slot = slot_in(p.tag2, p.tag);
        received[slot] = p.payload;
        received_ok[slot] = 1;
      }
      if (options.emit_protocol) {
        // Each router step becomes one protocol step: every transfer is a
        // send at the source plus a receive at the target, carrying the
        // pebble (P_u, t-1).  The single-port router guarantees the
        // transfers of a step form a matching, hence one op per processor.
        // Each hop looks up its packet's sender in a compact copy of the
        // tags rather than in the wide Packet records.
        sender_of.resize(routed.packets.size());
        for (std::size_t i = 0; i < routed.packets.size(); ++i) {
          sender_of[i] = routed.packets[i].tag;
        }
        std::size_t cursor = 0;
        for (std::uint32_t step = 0; step < routed.steps; ++step) {
          result.protocol->begin_step();
          for (; cursor < routed.transfers.size() && routed.transfers[cursor].step == step;
               ++cursor) {
            const Transfer& tr = routed.transfers[cursor];
            const PebbleType pebble{sender_of[tr.packet], t - 1};
            result.protocol->add(Op{OpKind::kSend, tr.from, pebble, tr.to});
            result.protocol->add(Op{OpKind::kReceive, tr.to, pebble, tr.from});
          }
        }
      }
    }
    }  // route span
    result.comm_steps += comm_steps_t;
    UPN_OBS_COUNT("sim.universal.comm_steps", comm_steps_t);

    // ---- Phase 2: computation (sequential per host, parallel across). ----
    UPN_OBS_SPAN("sim.universal.compute");
    std::vector<Config> neighbor_configs;
    neighbor_configs.reserve(guest.max_degree());
    for (NodeId v = 0; v < n; ++v) {
      neighbor_configs.clear();
      for (std::uint32_t s = guest_off[v]; s < guest_off[v + 1]; ++s) {
        const NodeId w = guest_adj[s];
        if (embedding_[w] == embedding_[v]) {
          neighbor_configs.push_back(configs[w]);  // local guest, no packet
        } else {
          UPN_INVARIANT(received_ok[s] != 0,
                        "UniversalSimulator: missing routed configuration");
          if (received_ok[s] == 0) continue;  // log-and-continue: skip the neighbor
          neighbor_configs.push_back(received[s]);
        }
      }
      next[v] = next_config(configs[v], neighbor_configs);
    }
    configs.swap(next);
    result.compute_steps += load_;
    UPN_OBS_COUNT("sim.universal.compute_steps", load_);
    if (options.emit_protocol) {
      for (std::uint32_t round = 0; round < load_; ++round) {
        result.protocol->begin_step();
        for (std::uint32_t q = 0; q < host.num_nodes(); ++q) {
          if (round < guests_of_[q].size()) {
            result.protocol->add(
                Op{OpKind::kGenerate, q, PebbleType{guests_of_[q][round], t}, 0});
          }
        }
      }
      if (t == 1) {
        // Every guest step routes the same h-relation and runs the same
        // rounds, so step 1 times T sizes the whole protocol: one allocation
        // instead of doubling growth, which would briefly hold the old and
        // the new op array together.
        result.protocol->reserve(result.protocol->num_ops() * guest_steps,
                                 std::uint64_t{result.protocol->host_steps()} * guest_steps);
      }
    }
  }

  if (options.emit_protocol) {
    // Every router step and every computation round became exactly one
    // pebble-protocol step, so the protocol's T' is the simulated T'.
    UPN_ENSURE(result.protocol->host_steps() == result.comm_steps + result.compute_steps,
               "emitted protocol must account for every host step");
    UPN_ENSURE(result.protocol->guest_steps() == guest_steps,
               "emitted protocol must cover the requested guest horizon");
  }
  result.host_steps = result.comm_steps + result.compute_steps;
  result.slowdown =
      guest_steps == 0 ? 0.0 : static_cast<double>(result.host_steps) / guest_steps;
  result.inefficiency = n == 0 ? 0.0 : result.slowdown * host.num_nodes() / n;

  // ---- End-to-end verification against the direct execution. ----
  UPN_OBS_SPAN("sim.universal.validate");
  const std::vector<Config> reference = run_reference(guest, options.seed, guest_steps);
  result.configs_match = reference == configs;
  UPN_OBS_COUNT("sim.universal.runs", 1);
  return result;
}

}  // namespace upn
