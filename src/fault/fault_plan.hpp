// Deterministic fault plans: scheduled hardware degradation for hosts.
//
// The paper's universality guarantee (Theorem 2.1) assumes a pristine host
// network M.  A FaultPlan describes how M degrades over host time: permanent
// link failures, permanent node failures (which take all incident links with
// them), and transient packet-drop windows.  Plans are pure data -- fully
// deterministic given their seed -- so every degradation experiment is
// reproducible bit-for-bit, and they serialize to a line-oriented text
// format mirroring pebble/io.  The router (routing/router.hpp) consults a
// plan each step; topology surgery (fault/surgery.hpp) computes the
// surviving host; the self-healing simulator (core/fault_tolerant_sim.hpp)
// re-embeds guests off dead hosts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// Permanent failure of link {u, v} from host step `step` onward.
struct LinkFault {
  NodeId u = 0;
  NodeId v = 0;
  std::uint32_t step = 0;

  friend bool operator==(const LinkFault&, const LinkFault&) = default;
};

/// Permanent failure of node `node` from host step `step` onward; every
/// incident link dies with it.
struct NodeFault {
  NodeId node = 0;
  std::uint32_t step = 0;

  friend bool operator==(const NodeFault&, const NodeFault&) = default;
};

/// Repair of link {u, v} at host step `step`: the link returns to service
/// until a later LinkFault kills it again.  Within a single step a repair
/// beats a fault (events apply fault-first, repair-second), so a plan that
/// kills and heals a link at the same step leaves it alive.  Repairs make
/// churn bidirectional; they never resurrect a dead NODE (node faults stay
/// permanent), and they do not erase history: link_ever_fails() still
/// reports a healed link as having failed at some point.
struct LinkRepair {
  NodeId u = 0;
  NodeId v = 0;
  std::uint32_t step = 0;

  friend bool operator==(const LinkRepair&, const LinkRepair&) = default;
};

/// Transient fault window: a packet crossing {u, v} during a host step in
/// [begin, end) is dropped with probability `prob`.  The drop decision is a
/// deterministic hash of (plan seed, edge, step, packet id), so replaying
/// the same routing run reproduces the same drops.
struct DropWindow {
  NodeId u = 0;
  NodeId v = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  double prob = 0.0;

  friend bool operator==(const DropWindow&, const DropWindow&) = default;
};

/// A complete degradation schedule.  Queries are linear in the number of
/// faults; hot paths should use FaultClock, which amortizes activation
/// tracking as the step counter advances.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void add_link_fault(const LinkFault& fault);
  void add_node_fault(const NodeFault& fault);
  void add_link_repair(const LinkRepair& repair);
  void add_drop_window(const DropWindow& window);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<LinkFault>& link_faults() const noexcept {
    return link_faults_;
  }
  [[nodiscard]] const std::vector<NodeFault>& node_faults() const noexcept {
    return node_faults_;
  }
  [[nodiscard]] const std::vector<LinkRepair>& link_repairs() const noexcept {
    return link_repairs_;
  }
  [[nodiscard]] const std::vector<DropWindow>& drop_windows() const noexcept {
    return drop_windows_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return link_faults_.empty() && node_faults_.empty() && link_repairs_.empty() &&
           drop_windows_.empty();
  }

  /// True iff node v has not permanently failed by host step `step`.
  [[nodiscard]] bool node_alive(NodeId v, std::uint32_t step) const noexcept;

  /// True iff link {u, v} and both endpoints are alive at host step `step`.
  /// With repairs, liveness is the state-machine view: the latest fault or
  /// repair on the link at or before `step` decides (repair wins a tie).
  [[nodiscard]] bool link_alive(NodeId u, NodeId v, std::uint32_t step) const noexcept;

  /// Deterministic transient-drop decision for a packet crossing {u, v}.
  [[nodiscard]] bool drops_packet(NodeId u, NodeId v, std::uint32_t step,
                                  std::uint32_t packet_id) const noexcept;

  /// True iff node v fails at SOME step (the step = infinity view).
  [[nodiscard]] bool node_ever_fails(NodeId v) const noexcept;

  /// True iff link {u, v} or an endpoint fails at some step (even if a
  /// repair later heals the link).
  [[nodiscard]] bool link_ever_fails(NodeId u, NodeId v) const noexcept;

  /// The plan as revealed to an observer at host step `step`: links and
  /// nodes that are NET-dead at `step` (their latest activated event is a
  /// fault) appear as step-0 faults, future events and already-applied
  /// repairs are removed, drop windows and seed are kept verbatim.  The
  /// self-healing simulator uses this to quantize fault activation to
  /// guest-step boundaries; with repairs the reveal is a snapshot of the
  /// surviving topology, not an event log.
  [[nodiscard]] FaultPlan revealed_at(std::uint32_t step) const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<LinkFault> link_faults_;
  std::vector<NodeFault> node_faults_;
  std::vector<LinkRepair> link_repairs_;
  std::vector<DropWindow> drop_windows_;
};

/// Incremental plan evaluator for monotonically advancing step counters.
/// Tracks the set of active permanent faults; O(changes) per advance, O(1)
/// node queries, O(log deg)-free hashed link queries.
class FaultClock {
 public:
  /// `num_nodes` bounds the node ids appearing in the plan (out-of-range
  /// ids in the plan are ignored rather than tracked).
  FaultClock(const FaultPlan& plan, std::uint32_t num_nodes);

  /// Advances the clock to `step` (monotonic; earlier steps are a no-op).
  /// Returns true iff the live topology changed since the last call -- new
  /// permanent faults activated or repairs healed links.
  bool advance(std::uint32_t step);

  [[nodiscard]] std::uint32_t step() const noexcept { return step_; }
  [[nodiscard]] bool node_alive(NodeId v) const noexcept { return dead_nodes_[v] == 0; }
  [[nodiscard]] bool link_alive(NodeId u, NodeId v) const noexcept;
  [[nodiscard]] bool drops_packet(NodeId u, NodeId v, std::uint32_t packet_id) const noexcept {
    return plan_->drops_packet(u, v, step_, packet_id);
  }
  [[nodiscard]] const std::vector<char>& dead_nodes() const noexcept { return dead_nodes_; }

 private:
  const FaultPlan* plan_;
  std::uint32_t step_ = 0;
  bool started_ = false;
  /// One scheduled link state change; repairs sort after faults at the same
  /// step so a same-step kill+heal leaves the link alive.
  struct LinkEvent {
    NodeId u = 0;
    NodeId v = 0;
    std::uint32_t step = 0;
    bool repair = false;
  };

  std::vector<char> dead_nodes_;
  std::vector<std::uint64_t> dead_links_;  ///< sorted keys (min << 32 | max)
  std::size_t next_link_ = 0;              ///< cursor into sorted link events
  std::size_t next_node_ = 0;              ///< cursor into sorted node activations
  std::vector<LinkEvent> link_events_;
  std::vector<NodeFault> nodes_by_step_;
};

// ---- Generators ----------------------------------------------------------
//
// All generators are coupled across rates: whether an element fails at rate
// r is decided by comparing a per-element hash in [0, 1) against r, so the
// fault set at rate r' > r is a superset of the set at rate r (same seed).
// Degradation curves swept over rates are therefore monotone in the injected
// damage, not just in expectation.

/// Each host link independently fails permanently at `step` with
/// probability `rate`.
[[nodiscard]] FaultPlan make_uniform_link_faults(const Graph& host, double rate,
                                                 std::uint64_t seed, std::uint32_t step = 0);

/// Each host node independently fails permanently at `step` with
/// probability `rate`.
[[nodiscard]] FaultPlan make_uniform_node_faults(const Graph& host, double rate,
                                                 std::uint64_t seed, std::uint32_t step = 0);

/// Region failure: every node within BFS distance `radius` of `center`
/// fails at `step` (models the loss of a rack / enclosure).
[[nodiscard]] FaultPlan make_region_fault(const Graph& host, NodeId center,
                                          std::uint32_t radius, std::uint32_t step,
                                          std::uint64_t seed = 0);

/// Every host link drops packets with probability `rate` during host steps
/// [begin, end); end = UINT32_MAX means forever.
[[nodiscard]] FaultPlan make_uniform_drops(const Graph& host, double rate, std::uint64_t seed,
                                           std::uint32_t begin = 0,
                                           std::uint32_t end = 0xffffffffu);

/// Live churn: each host link participates with probability `rate` (coupled
/// across rates, like the other generators: the churning set at a higher
/// rate contains the set at a lower rate under the same seed).  Each
/// participating link cycles for the whole horizon: it dies at a per-link
/// jittered offset inside every `period`-step window and heals `downtime`
/// steps after each death, so at any instant roughly rate * downtime/period
/// of the links are down while the topology keeps changing.  Requires
/// 0 < downtime < period.
[[nodiscard]] FaultPlan make_link_churn(const Graph& host, double rate, std::uint64_t seed,
                                        std::uint32_t horizon, std::uint32_t period = 32,
                                        std::uint32_t downtime = 8);

/// Merges b's faults into a (seed of `a` wins).
[[nodiscard]] FaultPlan merge_plans(const FaultPlan& a, const FaultPlan& b);

// ---- Textual (de)serialization, mirroring pebble/io ----------------------
//
// Format (line-oriented, whitespace-separated):
//   upn-faultplan 1 <seed> <num_link_faults> <num_node_faults> <num_drop_windows>
//   upn-faultplan 2 <seed> <num_link_faults> <num_node_faults> <num_drop_windows> <num_repairs>
//   L <u> <v> <step>
//   N <node> <step>
//   D <u> <v> <begin> <end> <prob>
//   R <u> <v> <step>
//
// Plans without repairs serialize as version 1, byte-identical to the
// historical format, so stored plans keep round-tripping; any repair event
// promotes the header to version 2 with the extra repair count.

void write_fault_plan(std::ostream& os, const FaultPlan& plan);

/// Parses a plan; throws std::runtime_error with a line number on any
/// malformed input.
[[nodiscard]] FaultPlan read_fault_plan(std::istream& is);

}  // namespace upn
