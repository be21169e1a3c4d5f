#include "src/fault/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/topology/properties.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace upn {

namespace {

constexpr std::uint64_t link_key(NodeId u, NodeId v) noexcept {
  const NodeId lo = u < v ? u : v;
  const NodeId hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Uniform [0, 1) hash used by both the coupled generators and the drop
/// decision; independent per (seed, salt) pair.
double hash_uniform(std::uint64_t seed, std::uint64_t salt) noexcept {
  return static_cast<double>(mix64(seed ^ mix64(salt)) >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultPlan::add_link_fault(const LinkFault& fault) {
  if (fault.u == fault.v) {
    throw std::invalid_argument{"FaultPlan: link fault endpoints must differ"};
  }
  link_faults_.push_back(fault);
}

void FaultPlan::add_node_fault(const NodeFault& fault) { node_faults_.push_back(fault); }

void FaultPlan::add_link_repair(const LinkRepair& repair) {
  if (repair.u == repair.v) {
    throw std::invalid_argument{"FaultPlan: link repair endpoints must differ"};
  }
  link_repairs_.push_back(repair);
  UPN_ENSURE(link_repairs_.back().u != link_repairs_.back().v,
             "recorded repair endpoints differ");
}

void FaultPlan::add_drop_window(const DropWindow& window) {
  if (window.prob < 0.0 || window.prob > 1.0) {
    throw std::invalid_argument{"FaultPlan: drop probability must be in [0, 1]"};
  }
  if (window.begin >= window.end) {
    throw std::invalid_argument{"FaultPlan: drop window must satisfy begin < end"};
  }
  drop_windows_.push_back(window);
}

bool FaultPlan::node_alive(NodeId v, std::uint32_t step) const noexcept {
  for (const NodeFault& f : node_faults_) {
    if (f.node == v && f.step <= step) return false;
  }
  return true;
}

bool FaultPlan::link_alive(NodeId u, NodeId v, std::uint32_t step) const noexcept {
  if (!node_alive(u, step) || !node_alive(v, step)) return false;
  const std::uint64_t key = link_key(u, v);
  bool faulted = false;
  std::uint32_t last_fault = 0;
  for (const LinkFault& f : link_faults_) {
    if (link_key(f.u, f.v) == key && f.step <= step) {
      faulted = true;
      last_fault = std::max(last_fault, f.step);
    }
  }
  if (!faulted) return true;
  // A repair no earlier than the newest activated fault heals the link
  // (repair wins a same-step tie: events apply fault-first).
  for (const LinkRepair& r : link_repairs_) {
    if (link_key(r.u, r.v) == key && r.step <= step && r.step >= last_fault) return true;
  }
  return false;
}

bool FaultPlan::drops_packet(NodeId u, NodeId v, std::uint32_t step,
                             std::uint32_t packet_id) const noexcept {
  const std::uint64_t key = link_key(u, v);
  for (const DropWindow& w : drop_windows_) {
    if (link_key(w.u, w.v) != key || step < w.begin || step >= w.end) continue;
    const std::uint64_t salt =
        key ^ (static_cast<std::uint64_t>(step) << 20) ^ (0xd1b54a32d192ed03ULL * packet_id);
    if (hash_uniform(seed_ ^ 0x7fau, salt) < w.prob) return true;
  }
  return false;
}

bool FaultPlan::node_ever_fails(NodeId v) const noexcept {
  for (const NodeFault& f : node_faults_) {
    if (f.node == v) return true;
  }
  return false;
}

bool FaultPlan::link_ever_fails(NodeId u, NodeId v) const noexcept {
  if (node_ever_fails(u) || node_ever_fails(v)) return true;
  const std::uint64_t key = link_key(u, v);
  for (const LinkFault& f : link_faults_) {
    if (link_key(f.u, f.v) == key) return true;
  }
  return false;
}

FaultPlan FaultPlan::revealed_at(std::uint32_t step) const {
  FaultPlan revealed{seed_};
  // Net view per link: only links whose latest activated event is a fault
  // are revealed (as step-0 faults); healed links and future events vanish.
  std::vector<std::uint64_t> seen;
  for (const LinkFault& f : link_faults_) {
    const std::uint64_t key = link_key(f.u, f.v);
    if (f.step > step || std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    std::uint32_t last_fault = 0;
    for (const LinkFault& g : link_faults_) {
      if (link_key(g.u, g.v) == key && g.step <= step) last_fault = std::max(last_fault, g.step);
    }
    bool healed = false;
    for (const LinkRepair& r : link_repairs_) {
      healed |= link_key(r.u, r.v) == key && r.step <= step && r.step >= last_fault;
    }
    if (!healed) revealed.add_link_fault(LinkFault{f.u, f.v, 0});
  }
  for (const NodeFault& f : node_faults_) {
    if (f.step <= step) revealed.add_node_fault(NodeFault{f.node, 0});
  }
  for (const DropWindow& w : drop_windows_) revealed.add_drop_window(w);
  UPN_ENSURE(revealed.link_faults().size() <= link_faults_.size() &&
                 revealed.node_faults().size() <= node_faults_.size(),
             "revealing cannot invent permanent faults");
  UPN_ENSURE(revealed.link_repairs().empty(),
             "the reveal is a net snapshot; repairs are already applied");
  UPN_ENSURE(revealed.drop_windows().size() == drop_windows_.size(),
             "drop windows are revealed verbatim");
  return revealed;
}

FaultClock::FaultClock(const FaultPlan& plan, std::uint32_t num_nodes)
    : plan_(&plan), dead_nodes_(num_nodes, 0), nodes_by_step_(plan.node_faults()) {
  link_events_.reserve(plan.link_faults().size() + plan.link_repairs().size());
  for (const LinkFault& f : plan.link_faults()) {
    link_events_.push_back(LinkEvent{f.u, f.v, f.step, false});
  }
  for (const LinkRepair& r : plan.link_repairs()) {
    link_events_.push_back(LinkEvent{r.u, r.v, r.step, true});
  }
  // Repairs sort after faults within a step so a same-step kill+heal nets
  // out alive; the stable sort keeps insertion order among equals.
  const auto by_step_then_repair = [](const LinkEvent& a, const LinkEvent& b) {
    return a.step != b.step ? a.step < b.step : (!a.repair && b.repair);
  };
  std::stable_sort(link_events_.begin(), link_events_.end(), by_step_then_repair);
  const auto by_step = [](const auto& a, const auto& b) { return a.step < b.step; };
  std::stable_sort(nodes_by_step_.begin(), nodes_by_step_.end(), by_step);
}

bool FaultClock::advance(std::uint32_t step) {
  if (started_ && step <= step_) return false;
  started_ = true;
  step_ = step;
  bool changed = false;
  while (next_node_ < nodes_by_step_.size() && nodes_by_step_[next_node_].step <= step) {
    const NodeId v = nodes_by_step_[next_node_].node;
    if (v < dead_nodes_.size() && dead_nodes_[v] == 0) {
      dead_nodes_[v] = 1;
      changed = true;
    }
    ++next_node_;
  }
  while (next_link_ < link_events_.size() && link_events_[next_link_].step <= step) {
    const LinkEvent& event = link_events_[next_link_];
    const std::uint64_t key = link_key(event.u, event.v);
    const auto it = std::lower_bound(dead_links_.begin(), dead_links_.end(), key);
    const bool dead = it != dead_links_.end() && *it == key;
    if (event.repair && dead) {
      dead_links_.erase(it);
      changed = true;
    } else if (!event.repair && !dead) {
      dead_links_.insert(it, key);
      changed = true;
    }
    ++next_link_;
  }
  return changed;
}

bool FaultClock::link_alive(NodeId u, NodeId v) const noexcept {
  if (dead_nodes_[u] != 0 || dead_nodes_[v] != 0) return false;
  const std::uint64_t key = link_key(u, v);
  return !std::binary_search(dead_links_.begin(), dead_links_.end(), key);
}

FaultPlan make_uniform_link_faults(const Graph& host, double rate, std::uint64_t seed,
                                   std::uint32_t step) {
  UPN_REQUIRE(rate >= 0.0 && rate <= 1.0,
              "make_uniform_link_faults: rate is a probability");
  FaultPlan plan{seed};
  for (const auto& [u, v] : host.edge_list()) {
    if (hash_uniform(seed ^ 0x11bcULL, link_key(u, v)) < rate) {
      plan.add_link_fault(LinkFault{u, v, step});
    }
  }
  return plan;
}

FaultPlan make_uniform_node_faults(const Graph& host, double rate, std::uint64_t seed,
                                   std::uint32_t step) {
  UPN_REQUIRE(rate >= 0.0 && rate <= 1.0,
              "make_uniform_node_faults: rate is a probability");
  FaultPlan plan{seed};
  for (NodeId v = 0; v < host.num_nodes(); ++v) {
    if (hash_uniform(seed ^ 0x23cdULL, v) < rate) {
      plan.add_node_fault(NodeFault{v, step});
    }
  }
  return plan;
}

FaultPlan make_region_fault(const Graph& host, NodeId center, std::uint32_t radius,
                            std::uint32_t step, std::uint64_t seed) {
  UPN_REQUIRE(center < host.num_nodes(), "make_region_fault: center must be a host node");
  FaultPlan plan{seed};
  const std::vector<std::uint32_t> dist = bfs_distances(host, center);
  for (NodeId v = 0; v < host.num_nodes(); ++v) {
    if (dist[v] != kUnreachable && dist[v] <= radius) {
      plan.add_node_fault(NodeFault{v, step});
    }
  }
  return plan;
}

FaultPlan make_uniform_drops(const Graph& host, double rate, std::uint64_t seed,
                             std::uint32_t begin, std::uint32_t end) {
  FaultPlan plan{seed};
  if (rate <= 0.0) return plan;
  for (const auto& [u, v] : host.edge_list()) {
    plan.add_drop_window(DropWindow{u, v, begin, end, rate});
  }
  return plan;
}

FaultPlan make_link_churn(const Graph& host, double rate, std::uint64_t seed,
                          std::uint32_t horizon, std::uint32_t period,
                          std::uint32_t downtime) {
  UPN_REQUIRE(rate >= 0.0 && rate <= 1.0, "make_link_churn: rate is a probability");
  UPN_REQUIRE(downtime > 0 && downtime < period,
              "make_link_churn: need 0 < downtime < period");
  FaultPlan plan{seed};
  for (const auto& [u, v] : host.edge_list()) {
    const std::uint64_t key = link_key(u, v);
    if (hash_uniform(seed ^ 0xc592ULL, key) >= rate) continue;
    // Deterministic per-link phase: the link dies at `offset` into every
    // period and heals `downtime` steps later, for as long as the horizon
    // lasts.  Different links churn out of phase, so the live topology
    // keeps changing rather than breathing in lock-step.
    const auto offset = static_cast<std::uint32_t>(
        mix64(seed ^ 0x0ff5e7ULL ^ key) % period);
    for (std::uint32_t t = offset; t < horizon; t += period) {
      plan.add_link_fault(LinkFault{u, v, t});
      plan.add_link_repair(LinkRepair{u, v, t + downtime});
    }
  }
  return plan;
}

FaultPlan merge_plans(const FaultPlan& a, const FaultPlan& b) {
  FaultPlan merged{a.seed()};
  for (const LinkFault& f : a.link_faults()) merged.add_link_fault(f);
  for (const NodeFault& f : a.node_faults()) merged.add_node_fault(f);
  for (const LinkRepair& r : a.link_repairs()) merged.add_link_repair(r);
  for (const DropWindow& w : a.drop_windows()) merged.add_drop_window(w);
  for (const LinkFault& f : b.link_faults()) merged.add_link_fault(f);
  for (const NodeFault& f : b.node_faults()) merged.add_node_fault(f);
  for (const LinkRepair& r : b.link_repairs()) merged.add_link_repair(r);
  for (const DropWindow& w : b.drop_windows()) merged.add_drop_window(w);
  return merged;
}

void write_fault_plan(std::ostream& os, const FaultPlan& plan) {
  // Version 1 (no repair count) is kept byte-identical for plans without
  // repairs so historical pins and stored plans stay valid.
  if (plan.link_repairs().empty()) {
    os << "upn-faultplan 1 " << plan.seed() << ' ' << plan.link_faults().size() << ' '
       << plan.node_faults().size() << ' ' << plan.drop_windows().size() << '\n';
  } else {
    os << "upn-faultplan 2 " << plan.seed() << ' ' << plan.link_faults().size() << ' '
       << plan.node_faults().size() << ' ' << plan.drop_windows().size() << ' '
       << plan.link_repairs().size() << '\n';
  }
  for (const LinkFault& f : plan.link_faults()) {
    os << "L " << f.u << ' ' << f.v << ' ' << f.step << '\n';
  }
  for (const NodeFault& f : plan.node_faults()) {
    os << "N " << f.node << ' ' << f.step << '\n';
  }
  for (const DropWindow& w : plan.drop_windows()) {
    std::ostringstream prob;
    prob << std::setprecision(17) << w.prob;
    os << "D " << w.u << ' ' << w.v << ' ' << w.begin << ' ' << w.end << ' ' << prob.str()
       << '\n';
  }
  for (const LinkRepair& r : plan.link_repairs()) {
    os << "R " << r.u << ' ' << r.v << ' ' << r.step << '\n';
  }
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error{"read_fault_plan: line " + std::to_string(line) + ": " + what};
}

}  // namespace

FaultPlan read_fault_plan(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(is, line)) fail(1, "empty input");
  ++line_no;
  std::istringstream header{line};
  std::string magic;
  int version = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_links = 0, num_nodes = 0, num_drops = 0, num_repairs = 0;
  if (!(header >> magic >> version >> seed >> num_links >> num_nodes >> num_drops) ||
      magic != "upn-faultplan" || (version != 1 && version != 2)) {
    fail(line_no,
         "bad header (expected 'upn-faultplan 1|2 <seed> <links> <nodes> <drops> [repairs]')");
  }
  if (version == 2 && !(header >> num_repairs)) {
    fail(line_no, "version 2 header is missing the repair count");
  }
  FaultPlan plan{seed};
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields{line};
    char kind = 0;
    fields >> kind;
    try {
      switch (kind) {
        case 'L': {
          LinkFault f;
          if (!(fields >> f.u >> f.v >> f.step)) fail(line_no, "malformed link fault");
          plan.add_link_fault(f);
          break;
        }
        case 'N': {
          NodeFault f;
          if (!(fields >> f.node >> f.step)) fail(line_no, "malformed node fault");
          plan.add_node_fault(f);
          break;
        }
        case 'D': {
          DropWindow w;
          if (!(fields >> w.u >> w.v >> w.begin >> w.end >> w.prob)) {
            fail(line_no, "malformed drop window");
          }
          plan.add_drop_window(w);
          break;
        }
        case 'R': {
          if (version < 2) fail(line_no, "repair records require a version 2 header");
          LinkRepair r;
          if (!(fields >> r.u >> r.v >> r.step)) fail(line_no, "malformed link repair");
          plan.add_link_repair(r);
          break;
        }
        default:
          fail(line_no, "unknown record kind");
      }
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
    std::string trailing;
    if (fields >> trailing) fail(line_no, "trailing garbage");
  }
  if (plan.link_faults().size() != num_links || plan.node_faults().size() != num_nodes ||
      plan.drop_windows().size() != num_drops || plan.link_repairs().size() != num_repairs) {
    fail(line_no, "record counts do not match header");
  }
  return plan;
}

}  // namespace upn
