#include "src/core/guest_step.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "src/obs/obs.hpp"
#include "src/sorting/sort_route.hpp"
#include "src/util/contracts.hpp"

namespace upn {

namespace {

/// Routes packet i for demand id(i) (tag = sender, tag2 = receiver) with
/// `route` and delivers every packet that arrived as deliver(id(i), payload).
template <class Id, class Route>
auto route_and_deliver(std::uint32_t count, Id id, StepPayloads step, const DeliverFn& deliver,
                       Route route) {
  const auto [demands, payloads] = step;
  using Result = decltype(route(std::vector<Packet>{}));
  if (count == 0) return Result{};
  std::vector<Packet> packets(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    UPN_REQUIRE(id(i) < demands.size(), "route_demands: demand index out of range");
    const GuestDemand& d = demands[id(i)];
    packets[i] = Packet{.src = d.src, .dst = d.dst, .via = d.dst, .payload = payloads[id(i)],
                        .tag = d.sender, .tag2 = d.receiver};
  }
  Result routed = route(std::move(packets));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (routed.packets[i].lost == 0) deliver(id(i), routed.packets[i].payload);
  }
  return routed;
}

}  // namespace

std::vector<GuestDemand> guest_step_demands(const Graph& guest,
                                            const std::vector<NodeId>& embedding) {
  UPN_REQUIRE(embedding.size() == guest.num_nodes(),
              "guest_step_demands: embedding size != guest size");
  const std::uint32_t* off = guest.offsets().data();
  const NodeId* adj = guest.adjacency().data();
  std::vector<GuestDemand> demands;
  for (NodeId u = 0; u < guest.num_nodes(); ++u) {
    for (const NodeId v : guest.neighbors(u)) {
      if (embedding[u] == embedding[v]) continue;
      // v's CSR slot for u: neighbor lists are sorted ascending.
      const NodeId* first = adj + off[v];
      const auto slot = off[v] + static_cast<std::uint32_t>(
                                     std::lower_bound(first, adj + off[v + 1], u) - first);
      demands.push_back(GuestDemand{u, v, embedding[u], embedding[v], slot});
    }
  }
  return demands;
}

GuestStepKernel::GuestStepKernel(const Graph& guest, const std::vector<NodeId>& embedding,
                                 std::uint64_t seed)
    : guest_(&guest), embedding_(&embedding), seed_(seed), configs_(guest.num_nodes()),
      next_(guest.num_nodes()), inbox_(guest.adjacency().size()),
      fresh_(guest.adjacency().size(), 0) {
  for (NodeId u = 0; u < guest.num_nodes(); ++u) configs_[u] = initial_config(seed, u);
  for (std::size_t s = 0; s < inbox_.size(); ++s) inbox_[s] = configs_[guest.adjacency()[s]];
  gather_.reserve(guest.max_degree());
  rebuild_demands();
}

void GuestStepKernel::rebuild_demands() {
  // guest_step_demands checks the embedding.
  demands_ = guest_step_demands(*guest_, *embedding_);
  payloads_.resize(demands_.size());
}

StepPayloads GuestStepKernel::step_payloads() {
  UPN_INVARIANT(payloads_.size() == demands_.size(), "one payload per demand");
  for (std::size_t d = 0; d < demands_.size(); ++d) payloads_[d] = configs_[demands_[d].sender];
  return StepPayloads{demands_, payloads_};
}

void GuestStepKernel::deliver(std::uint32_t demand, Config payload) {
  UPN_REQUIRE(demand < demands_.size(), "GuestStepKernel::deliver: demand index out of range");
  const std::uint32_t slot = demands_[demand].slot;
  inbox_[slot] = payload;
  fresh_[slot] = step_;
}

std::uint64_t GuestStepKernel::compute() {
  const std::vector<NodeId>& embedding = *embedding_;
  UPN_REQUIRE(embedding.size() == configs_.size(), "embedding size != guest size");
  const std::uint32_t* off = guest_->offsets().data();
  const NodeId* adj = guest_->adjacency().data();
  std::uint64_t stale = 0;
  for (NodeId v = 0; v < configs_.size(); ++v) {
    gather_.clear();
    for (std::uint32_t s = off[v]; s < off[v + 1]; ++s) {
      const NodeId w = adj[s];
      if (embedding[w] == embedding[v]) {
        gather_.push_back(configs_[w]);  // local guest, no packet
      } else {
        stale += fresh_[s] != step_ ? 1u : 0u;
        gather_.push_back(inbox_[s]);
      }
    }
    next_[v] = next_config(configs_[v], gather_);
  }
  configs_.swap(next_);
  ++step_;
  return stale;
}

void GuestStepKernel::compute_lossless(const char* simulator) {
  if (compute() != 0) {
    throw std::logic_error{std::string{simulator} + ": missing routed configuration" +
                           obs::context_suffix()};
  }
}

bool GuestStepKernel::configs_match() const {
  return run_reference(*guest_, seed_, step_ - 1) == configs_;
}

RouteResult route_demands(SyncRouter& router, RoutingPolicy& policy, const TransferSink& sink,
                          StepPayloads step, const DeliverFn& deliver) {
  UPN_REQUIRE(step.payloads.size() == step.demands.size(), "route_demands: one payload per demand");
  return route_and_deliver(static_cast<std::uint32_t>(step.demands.size()), std::identity{}, step,
                           deliver, [&](std::vector<Packet> packets) {
                             return router.route(std::move(packets), policy, sink);
                           });
}

RouteResult route_demands_with_faults(SyncRouter& router, const FaultRouteOptions& faults,
                                      const TransferSink& sink, StepPayloads step,
                                      std::span<const std::uint32_t> ids,
                                      const DeliverFn& deliver) {
  UPN_REQUIRE(step.payloads.size() == step.demands.size(),
              "route_demands_with_faults: one payload per demand");
  return route_and_deliver(
      static_cast<std::uint32_t>(ids.size()), [&](std::uint32_t i) { return ids[i]; }, step,
      deliver, [&](std::vector<Packet> packets) {
        return router.route_with_faults(std::move(packets), faults, sink);
      });
}

OnlineRouteResult route_demands_online(OnlineRouter& router, std::uint32_t max_steps,
                                       StepPayloads step, const DeliverFn& deliver) {
  UPN_REQUIRE(step.payloads.size() == step.demands.size(),
              "route_demands_online: one payload per demand");
  return route_and_deliver(static_cast<std::uint32_t>(step.demands.size()), std::identity{}, step,
                           deliver, [&](std::vector<Packet> packets) {
                             return router.route(std::move(packets), max_steps);
                           });
}

std::uint32_t replay_schedule(std::span<const ScheduledMove> moves, std::uint32_t num_steps,
                              StepPayloads step, const DeliverFn& deliver) {
  const auto [demands, payloads] = step;
  UPN_REQUIRE(payloads.size() == demands.size(), "replay_schedule: one payload per demand");
  struct InFlight {
    NodeId at;
    Config payload;
  };
  std::vector<InFlight> packets(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) packets[d] = {demands[d].src, payloads[d]};
  for (const ScheduledMove& move : moves) {
    UPN_REQUIRE(move.packet < packets.size(), "replay_schedule: packet index out of range");
    InFlight& packet = packets[move.packet];
    if (packet.at != move.from) {
      throw std::logic_error{"replay_schedule: hop of packet " + std::to_string(move.packet) +
                             " does not start at its position"};
    }
    packet.at = move.to;
  }
  for (std::uint32_t d = 0; d < packets.size(); ++d) {
    if (packets[d].at == demands[d].dst) deliver(d, packets[d].payload);
  }
  return num_steps;
}

std::vector<ScheduledMove> path_schedule_moves(const PathSchedule& schedule) {
  std::vector<ScheduledMove> moves;
  moves.reserve(schedule.total_moves);
  for (std::uint32_t step = 0; step < schedule.moves.size(); ++step) {
    for (const auto& [packet, from, to] : schedule.moves[step]) {
      moves.push_back(ScheduledMove{step, from, to, packet});
    }
  }
  UPN_ENSURE(moves.size() == schedule.total_moves, "every scheduled move is listed once");
  return moves;
}

std::uint64_t sort_demands(const HhProblem& relation, const ComparatorNetwork& sorter,
                           StepPayloads step, const DeliverFn& deliver) {
  const auto [demands, payloads] = step;
  UPN_REQUIRE(relation.size() == demands.size() && payloads.size() == demands.size(),
              "sort_demands: one relation entry and one payload per demand");
  const SortRouteDelivery delivery = deliver_relation_by_sorting(relation, payloads, sorter);
  if (!delivery.stats.delivered) {
    throw std::logic_error{"run_galil_paul: sort routing failed to deliver"};
  }
  for (const SortRecord& record : delivery.records) {
    if (record.demand >= demands.size() || record.node != demands[record.demand].dst) {
      throw std::logic_error{"run_galil_paul: sort routing delivered wrong records"};
    }
    deliver(record.demand, record.payload);
  }
  return delivery.stats.comparator_steps;
}

TransferSink emit_route_ops(Protocol& protocol, std::span<const NodeId> senders,
                            std::uint32_t pebble_time) {
  UPN_REQUIRE(pebble_time < protocol.guest_steps(),
              "emit_route_ops: pebble time outside the protocol's guest horizon");
  // One router step's ops, built in a buffer the sink keeps and handed to
  // the protocol in one add_step; it grows to the largest step's two ops
  // per transfer.
  return [&protocol, senders, pebble_time,
          step_ops = std::vector<Op>{}](std::span<const Transfer> hops) mutable {
    if (step_ops.size() < 2 * hops.size()) step_ops.resize(2 * hops.size());
    Op* out = step_ops.data();
    for (const Transfer& tr : hops) {
      UPN_REQUIRE(tr.packet < senders.size(), "emit_route_ops: packet without a sender");
      const PebbleType pebble{senders[tr.packet], pebble_time};
      *out++ = Op{OpKind::kSend, tr.from, pebble, tr.to};
      if (tr.dropped == 0) *out++ = Op{OpKind::kReceive, tr.to, pebble, tr.from};
    }
    protocol.add_step({step_ops.data(), out});
  };
}

std::uint32_t emit_generate_rounds(Protocol* protocol,
                                   const std::vector<std::vector<NodeId>>& guests_of,
                                   std::uint32_t t) {
  UPN_REQUIRE(protocol == nullptr || guests_of.size() == protocol->num_hosts(),
              "emit_generate_rounds: one guest list per host");
  std::uint32_t rounds = 0;
  for (const auto& bucket : guests_of) {
    rounds = std::max(rounds, static_cast<std::uint32_t>(bucket.size()));
  }
  // One round's generates, handed to the protocol in one add_step.
  std::vector<Op> round_ops;
  for (std::uint32_t round = 0; protocol != nullptr && round < rounds; ++round) {
    round_ops.clear();
    for (std::uint32_t q = 0; q < guests_of.size(); ++q) {
      if (round < guests_of[q].size()) {
        round_ops.push_back(Op{OpKind::kGenerate, q, PebbleType{guests_of[q][round], t}, 0});
      }
    }
    protocol->add_step(round_ops);
  }
  return rounds;
}

}  // namespace upn
