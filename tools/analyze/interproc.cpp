// The interprocedural passes over the whole-program call graph
// (tools/analyze/callgraph.hpp).  Both are pure (graph + units in, findings
// out); the engine owns ordering.
//
//   lock order / task blocking -- per-function acquired-lock summaries
//        propagated over resolved edges; a cycle in the observed
//        held-before relation is a potential deadlock, and any blocking
//        operation (lock acquisition, condition-variable wait, IO)
//        reachable from a ThreadPool task body stalls a pool worker.
//   dead functions -- src/ functions, free or member (constructors and
//        destructors aside), whose name is never referenced outside their
//        own declarations and tests/.  Liveness is by name reference
//        (calls, address-taken uses such as `&Class::m`, using-declarations
//        all count), so recursion alone does not keep a function alive but
//        any use of the name -- another overload, another class's method
//        of that name -- keeps every definition of it alive: conservative
//        in the direction that matters.
//
// Findings are restricted to src/ modules (module_of(file) non-empty): the
// pool's own tests deliberately lock inside tasks, and fixtures/benches are
// not production surfaces.  util and obs are additionally exempt as
// task-blocking SITES (util/par is the pool, obs counters lock by design).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tools/analyze/callgraph.hpp"
#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

/// Path -> unit, for suppression lookups at finding lines (every graph node's
/// file is one of the units).
std::map<std::string, const Unit*> unit_index(const std::vector<Unit>& units) {
  std::map<std::string, const Unit*> index;
  for (const Unit& unit : units) index.emplace(unit.path, &unit);
  return index;
}

/// Node ids reachable from `start` over resolved edges (including `start`).
std::vector<std::size_t> reachable_from(const CallGraph& graph, std::size_t start) {
  std::vector<std::size_t> order{start};
  std::set<std::size_t> seen{start};
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t next : graph.out_ids[order[head]]) {
      if (seen.insert(next).second) order.push_back(next);
    }
  }
  return order;
}

/// Transitive lock-acquisition summaries: node id -> sorted lock names the
/// function (or anything it calls through resolved edges) may acquire.
std::vector<std::vector<std::string>> transitive_acquires(const CallGraph& graph) {
  std::vector<std::set<std::string>> acq(graph.nodes.size());
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    for (const BlockingOp& op : graph.nodes[id].blocking) {
      if (op.kind == BlockKind::kLock) acq[id].insert(op.what);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CallEdge& e : graph.edges) {
      for (const std::string& lock : acq[e.callee]) {
        if (acq[e.caller].insert(lock).second) changed = true;
      }
    }
  }
  std::vector<std::vector<std::string>> out(acq.size());
  for (std::size_t id = 0; id < acq.size(); ++id) {
    out[id].assign(acq[id].begin(), acq[id].end());
  }
  return out;
}

/// One witness cycle in the held-before lock relation as
/// "a -> b -> ... -> a", or "" when acyclic.  Deterministic: sorted order.
std::string lock_cycle(const std::map<std::string, std::set<std::string>>& after) {
  std::map<std::string, int> state;  // 0 new, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::string witness;
  // NOLINTNEXTLINE(misc-no-recursion): depth is bounded by the lock count.
  auto dfs = [&](auto&& self, const std::string& node) -> bool {
    state[node] = 1;
    stack.push_back(node);
    const auto it = after.find(node);
    if (it != after.end()) {
      for (const std::string& next : it->second) {
        const int s = state.count(next) != 0 ? state.at(next) : 0;
        if (s == 1) {
          witness = next;
          const auto from = std::find(stack.begin(), stack.end(), next);
          for (auto w = from; w != stack.end(); ++w) {
            if (w != from) witness += " -> " + *w;
          }
          witness += " -> " + next;
          return true;
        }
        if (s == 0 && self(self, next)) return true;
      }
    }
    stack.pop_back();
    state[node] = 2;
    return false;
  };
  for (const auto& [node, next] : after) {
    (void)next;
    if ((state.count(node) == 0 || state.at(node) == 0) && dfs(dfs, node)) return witness;
  }
  return "";
}

/// Modules whose blocking operations are sanctioned even under a task body:
/// util owns the pool itself, obs counters serialize by design.
bool blocking_site_exempt(const std::string& module) {
  return module == "util" || module.compare(0, 4, "util") == 0 || module == "obs";
}

}  // namespace

std::vector<Finding> run_lock_order_pass(const CallGraph& graph,
                                         const std::vector<Unit>& units) {
  std::vector<Finding> out;
  const std::map<std::string, const Unit*> index = unit_index(units);
  const std::vector<std::vector<std::string>> acquires = transitive_acquires(graph);

  // ---- lock-order-cycle: the observed held-before relation must be acyclic.
  // An edge A -> B means "B is acquired while A is held", observed either
  // directly (a lock op with a non-empty held set) or through a call whose
  // callee transitively acquires B.
  std::map<std::string, std::set<std::string>> after;
  std::map<std::pair<std::string, std::string>, std::pair<std::string, std::size_t>> where;
  auto note = [&](const std::string& held, const std::string& next, const std::string& file,
                  std::size_t line) {
    if (held == next) return;
    after[held].insert(next);
    auto& site = where[{held, next}];
    if (site.first.empty() || std::tie(file, line) < std::tie(site.first, site.second)) {
      site = {file, line};
    }
  };
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const FunctionNode& node = graph.nodes[id];
    if (node.module.empty()) continue;  // src/ only
    for (const BlockingOp& op : node.blocking) {
      if (op.kind != BlockKind::kLock) continue;
      for (const std::string& held : op.held) note(held, op.what, node.file, op.line);
    }
  }
  for (const CallEdge& e : graph.edges) {
    const FunctionNode& caller = graph.nodes[e.caller];
    if (caller.module.empty()) continue;
    if (e.call_index >= caller.calls.size()) continue;  // task edges carry no site
    const RawCall& call = caller.calls[e.call_index];
    for (const std::string& held : call.held_locks) {
      for (const std::string& acquired : acquires[e.callee]) {
        note(held, acquired, caller.file, call.line);
      }
    }
  }
  const std::string cycle = lock_cycle(after);
  if (!cycle.empty()) {
    // Report once, at the smallest (file, line) witness site among the
    // cycle's edges, so the finding is stable under unrelated edits.
    std::vector<std::string> locks;
    std::string token;
    for (const char c : cycle) {
      if (c == ' ' || c == '-' || c == '>') {
        if (!token.empty()) locks.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
    if (!token.empty()) locks.push_back(token);
    std::pair<std::string, std::size_t> site;
    for (std::size_t k = 0; k + 1 < locks.size(); ++k) {
      const auto it = where.find({locks[k], locks[k + 1]});
      if (it == where.end()) continue;
      if (site.first.empty() || it->second < site) site = it->second;
    }
    if (!site.first.empty() &&
        !suppressed(*index.at(site.first), site.second, "lock-order-cycle")) {
      out.push_back(Finding{site.first, site.second, "lock-order-cycle",
                            "locks are acquired in inconsistent order: '" + cycle +
                                "'; pick one global order or merge the critical sections"});
    }
  }

  // ---- task-blocking-call / task-blocking-io: blocking operations reachable
  // from a ThreadPool task body stall a pool worker (and with one worker per
  // hardware thread, possibly the whole pool).
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const FunctionNode& task = graph.nodes[id];
    if (!task.is_task_body || task.module.empty()) continue;
    std::set<std::pair<std::string, std::string>> reported;  // (rule, what)
    for (const std::size_t reached : reachable_from(graph, id)) {
      const FunctionNode& site = graph.nodes[reached];
      if (blocking_site_exempt(site.module)) continue;
      for (const BlockingOp& op : site.blocking) {
        const std::string rule =
            op.kind == BlockKind::kIo ? "task-blocking-io" : "task-blocking-call";
        if (!reported.insert({rule, op.what}).second) continue;
        if (suppressed(*index.at(task.file), task.line, rule)) continue;
        const char* verb = op.kind == BlockKind::kLock   ? "acquires lock"
                           : op.kind == BlockKind::kWait ? "waits on"
                                                         : "performs IO via";
        std::string message =
            std::string("parallel task body ") + verb + " '" + op.what + "'";
        if (reached != id) message += " through '" + site.qualified + "'";
        message += "; pool workers must not block (restructure or move the work off-task)";
        out.push_back(Finding{task.file, task.line, rule, std::move(message)});
      }
    }
  }

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

std::vector<Finding> run_dead_function_pass(const CallGraph& graph,
                                            const std::vector<Unit>& units) {
  std::vector<Finding> out;
  const std::map<std::string, const Unit*> index = unit_index(units);

  // Candidates: free and member functions defined under src/.  Constructors
  // and destructors run without their name being written, so they are
  // exempt (`operator` is a control keyword to the scope walker, so an
  // operator definition yields no node; a conversion operator's node carries
  // its type's name, which every use of the type keeps alive);
  // main plus task bodies are roots by construction.
  std::map<std::string, std::vector<std::size_t>> candidates;
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const FunctionNode& node = graph.nodes[id];
    if (node.module.empty() || node.is_task_body || node.name == "main") continue;
    if (node.name == node.class_name || node.name.front() == '~') continue;
    candidates[node.name].push_back(id);
  }
  if (candidates.empty()) return out;

  // Liveness by name reference across the analyzed set minus tests/ (CLI,
  // bench, example and upnbench code are the roots; a function only tests
  // reach belongs in tests/support): a name is alive iff it occurs more
  // often than its own definitions and header prototypes account for.  Any
  // reference counts -- calls, address-taken uses, using-declarations -- so
  // the pass errs toward alive, never toward flagging live code (recursion
  // is the documented exception: a self-call keeps a function alive).  Only
  // HEADER prototypes count as self-references: the declaration index can
  // misclassify expression statements in .cpp files (e.g. a call inside an
  // immediately-invoked lambda initializer) as declarations, and counting
  // those would hide real uses.
  std::map<std::string, std::size_t> mentions;
  std::map<std::string, std::size_t> prototypes;
  for (const Unit& unit : units) {
    if (unit.path.rfind("tests/", 0) == 0) continue;
    for (const Token& t : unit.tokens) {
      if (t.kind != TokenKind::kIdent) continue;
      const auto it = mentions.find(t.text);
      if (it != mentions.end()) {
        ++it->second;
      } else if (candidates.count(t.text) != 0) {
        mentions.emplace(t.text, 1);
      }
    }
    if (!unit.is_header) continue;
    for (const Declaration& d : unit.decls) {
      if (d.kind == DeclKind::kFunction && !d.has_body && candidates.count(d.name) != 0) {
        ++prototypes[d.name];
      }
    }
  }

  for (const auto& [name, ids] : candidates) {
    const std::size_t seen = mentions.count(name) != 0 ? mentions.at(name) : 0;
    const std::size_t protos = prototypes.count(name) != 0 ? prototypes.at(name) : 0;
    if (seen > ids.size() + protos) continue;  // referenced somewhere
    std::set<std::tuple<std::string, std::size_t, std::string>> sites;
    for (const std::size_t id : ids) {
      const FunctionNode& node = graph.nodes[id];
      sites.insert({node.file, node.line, node.qualified});
    }
    std::set<std::string> reported_files;
    for (const auto& [file, line, qualified] : sites) {
      if (!reported_files.insert(file).second) continue;
      if (suppressed(*index.at(file), line, "dead-function")) continue;
      out.push_back(Finding{file, line, "dead-function",
                            "function '" + qualified +
                                "' is never referenced outside its own declarations "
                                "and tests/; delete it or move it to tests/support"});
    }
  }

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
