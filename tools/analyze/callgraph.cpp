// Whole-program call-graph construction over the shared TU IR.  Two halves:
//
//   extract_functions  per unit, scans the bodies of the function
//                      definitions the IR's scope walker recorded
//                      (Unit::functions): scope-qualified names and
//                      parameter lists, blocking operations with the
//                      held-lock set, raw call sites, and one pseudo-node per
//                      lambda handed to ThreadPool::parallel_for/map;
//   link_callgraph     an ordered merge plus name/arity/receiver-type
//                      resolution into resolved edges and conservative open
//                      edges (virtual, indirect, ambiguous receiver).
//
// Like the scope walker this is NOT a C++ parser: it recognizes the shapes
// this codebase uses and degrades by dropping a node or widening an edge to
// "open" rather than inventing a wrong one.
#include "tools/analyze/callgraph.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/util/par.hpp"
#include "tools/analyze/ir.hpp"

namespace upn::analyze {
namespace {

/// Type qualifiers that precede the real type name in a declaration.
bool qualifier_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "const", "constexpr", "consteval", "constinit", "static", "inline",
      "auto", "unsigned", "signed", "volatile", "register", "mutable",
      "struct", "class", "enum", "union", "using", "namespace", "typedef",
      "extern", "friend", "virtual", "explicit", "thread_local"};
  return kw.count(t) != 0;
}

/// Blocking IO facilities (streams, C stdio, process spawns).
bool io_name(const std::string& t) {
  static const std::set<std::string> names = {
      "ifstream", "ofstream", "fstream", "fopen", "popen", "fread", "fwrite",
      "printf", "fprintf", "getline", "system", "cin", "cout"};
  return names.count(t) != 0;
}

/// The type name a declaration spells directly before `name_idx`:
/// `Graph g` -> Graph, `Graph& g` / `Graph* g` -> Graph,
/// `std::vector<int>& xs` -> vector.  "" when the shape is not a declaration.
std::string declared_type_before(const std::vector<Token>& toks, std::size_t name_idx) {
  if (name_idx == 0) return "";
  std::size_t k = name_idx - 1;
  while (k > 0 && (toks[k].text == "&" || toks[k].text == "*")) --k;
  if (toks[k].text == ">") {
    int depth = 0;
    while (k > 0) {
      if (toks[k].text == ">") ++depth;
      if (toks[k].text == "<" && --depth == 0) break;
      --k;
    }
    if (k == 0) return "";
    --k;  // the token before '<'
  }
  if (toks[k].kind != TokenKind::kIdent || control_keyword(toks[k].text) ||
      qualifier_keyword(toks[k].text)) {
    return "";
  }
  return toks[k].text;
}

/// A task pseudo-node plus the tasks nested inside its own body.
struct TaskSpawn {
  FunctionNode node;
  std::vector<TaskSpawn> children;
};

struct Extractor {
  const Unit& unit;
  UnitFunctions out;

  [[nodiscard]] const std::vector<Token>& toks() const { return unit.tokens; }
  [[nodiscard]] const std::string& tok(std::size_t k) const { return unit.tokens[k].text; }

  // ---- heads and bodies -----------------------------------------------------

  /// Parses the parameter list group starting at `open` ('('): ordered names
  /// plus a name -> declared-type map.
  void parse_params(std::size_t open, std::size_t close,
                    std::vector<std::string>& names,
                    std::map<std::string, std::string>& types) const {
    std::size_t seg_begin = open + 1;
    int depth = 0;
    int angle = 0;
    for (std::size_t k = open; k < close; ++k) {
      const std::string& t = tok(k);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == "<" && k > open && (toks()[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) ++angle;
      if (t == ">" && angle > 0) --angle;
      const bool seg_end = (depth == 1 && angle == 0 && t == ",") || (depth == 0 && t == ")");
      if (!seg_end) continue;
      // The parameter name: the last identifier before a default '=' (or the
      // segment end).  A segment with fewer than two tokens is unnamed.
      std::size_t stop = k;
      int sub_angle = 0;
      for (std::size_t p = seg_begin; p < k; ++p) {
        if (tok(p) == "<" && p > seg_begin &&
            (toks()[p - 1].kind == TokenKind::kIdent || tok(p - 1) == ">")) {
          ++sub_angle;
        } else if (tok(p) == ">" && sub_angle > 0) {
          --sub_angle;
        } else if (tok(p) == "=" && sub_angle == 0) {
          stop = p;
          break;
        }
      }
      if (stop > seg_begin + 1 && toks()[stop - 1].kind == TokenKind::kIdent &&
          !control_keyword(tok(stop - 1))) {
        const std::string name = tok(stop - 1);
        names.push_back(name);
        const std::string type = declared_type_before(toks(), stop - 1);
        if (!type.empty()) types.emplace(name, type);
      } else if (stop > seg_begin) {
        names.emplace_back();  // unnamed parameter still counts toward arity
      }
      seg_begin = k + 1;
    }
  }

  /// Declaration-position identifiers in [b, e): name -> declared type.
  void collect_locals(std::size_t b, std::size_t e,
                      std::map<std::string, std::string>& locals) const {
    for (std::size_t j = b + 1; j < e; ++j) {
      if (toks()[j].kind != TokenKind::kIdent || control_keyword(tok(j)) ||
          qualifier_keyword(tok(j))) {
        continue;
      }
      const std::string type = declared_type_before(toks(), j);
      if (!type.empty()) locals.emplace(tok(j), type);
    }
  }

  /// Scope-qualifies a mutex/lock name that is not body-local.
  [[nodiscard]] std::string qualify_lock(const std::string& name, const FunctionNode& node,
                                         const std::map<std::string, std::string>& locals) const {
    if (locals.count(name) != 0) return name;
    bool is_param = false;
    for (const std::string& p : node.params) is_param = is_param || p == name;
    if (is_param || node.class_name.empty()) return name;
    return node.class_name + "::" + name;
  }

  [[nodiscard]] static std::vector<std::string> held_names(
      const std::vector<std::pair<std::string, int>>& held) {
    std::vector<std::string> names;
    names.reserve(held.size());
    for (const auto& [name, depth] : held) names.push_back(name);
    return names;
  }

  /// Walks a body range [b, e), filling `node` and spawning task
  /// pseudo-nodes.  `outer_locals` carries the enclosing function's
  /// declarations into task bodies.
  void scan_body(FunctionNode& node, std::size_t b, std::size_t e,
                 const std::map<std::string, std::string>& outer_locals,
                 std::vector<TaskSpawn>& tasks) {
    std::map<std::string, std::string> locals = outer_locals;
    collect_locals(b, e, locals);
    for (const std::string& p : node.params) {
      if (!p.empty() && locals.count(p) == 0) locals.emplace(p, "");
    }

    int depth = 0;
    std::vector<std::pair<std::string, int>> held;  // (lock name, depth)
    std::vector<std::pair<std::size_t, std::size_t>> skip;  // task body ranges

    auto is_local = [&](const std::string& name) { return locals.count(name) != 0; };

    for (std::size_t j = b; j < e; ++j) {
      for (const auto& range : skip) {
        if (j == range.first) j = range.second;  // jump to the closing '}'
      }
      const Token& t = toks()[j];
      if (t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == "}") {
        while (!held.empty() && held.back().second >= depth) held.pop_back();
        --depth;
        continue;
      }
      if (t.kind != TokenKind::kIdent) continue;
      const std::string& name = t.text;

      // Guard-object lock acquisition: lock_guard<..> name(mutex, ...).
      if (lock_guard_type(name)) {
        std::size_t k = j + 1;
        if (k < e && tok(k) == "<") k = skip_angles(toks(), k);
        if (k < e && toks()[k].kind == TokenKind::kIdent) ++k;  // the guard variable
        if (k < e && (tok(k) == "(" || tok(k) == "{")) {
          const std::size_t close = skip_group(toks(), k);
          const bool all_args = name == "scoped_lock";
          std::size_t seg_begin = k + 1;
          int gd = 0;
          for (std::size_t p = k; p < close && p < e + 1; ++p) {
            const std::string& pt = tok(p);
            if (pt == "(" || pt == "[" || pt == "{") ++gd;
            if (pt == ")" || pt == "]" || pt == "}") --gd;
            const bool seg_end = (gd == 1 && pt == ",") || gd == 0;
            if (!seg_end) continue;
            std::string lock_name;
            for (std::size_t q = seg_begin; q < p; ++q) {
              if (toks()[q].kind == TokenKind::kIdent) lock_name = tok(q);
            }
            if (!lock_name.empty()) {
              const std::string qualified = qualify_lock(lock_name, node, locals);
              node.blocking.push_back(
                  BlockingOp{BlockKind::kLock, qualified, t.line, held_names(held)});
              held.emplace_back(qualified, depth);
            }
            seg_begin = p + 1;
            if (!all_args) break;
          }
        }
        continue;
      }

      const std::string prev = j > 0 ? tok(j - 1) : "";
      const bool after_member = prev == "." || prev == "->";

      // Manual .lock() / condition-variable .wait().
      if (after_member && j + 1 < e && tok(j + 1) == "(" && (name == "lock" || name == "wait")) {
        const std::string receiver =
            j >= 2 && toks()[j - 2].kind == TokenKind::kIdent ? tok(j - 2) : name;
        const std::string qualified = qualify_lock(receiver, node, locals);
        node.blocking.push_back(BlockingOp{name == "lock" ? BlockKind::kLock : BlockKind::kWait,
                                           qualified, t.line, held_names(held)});
        continue;
      }
      if (io_name(name)) {
        node.blocking.push_back(BlockingOp{BlockKind::kIo, name, t.line, held_names(held)});
        continue;
      }
      // ThreadPool task spawn: pool.parallel_for/parallel_map(count, [..](..){..}).
      if (task_spawn_at(toks(), j)) {
        Lambda lambda;
        if (!parse_task_lambda(toks(), j, e, lambda)) continue;

        TaskSpawn spawn;
        FunctionNode& task = spawn.node;
        task.file = node.file;
        task.module = node.module;
        task.line = toks()[lambda.open].line;
        task.name = "task@" + std::to_string(task.line);
        task.class_name = node.class_name;
        task.qualified = node.qualified + "/" + task.name;
        task.is_task_body = true;
        task.params.assign(lambda.params.begin(), lambda.params.end());
        task.arity = task.params.size();
        scan_body(task, lambda.body_begin, lambda.body_end, locals, spawn.children);
        tasks.push_back(std::move(spawn));
        skip.emplace_back(lambda.body_begin, lambda.body_end);
        continue;
      }

      // Generic call site: ident '(' not preceded by a declaring type name.
      if (j + 1 >= e || tok(j + 1) != "(") continue;
      if (control_keyword(name)) continue;
      const Token* prev_tok = j > 0 ? &toks()[j - 1] : nullptr;
      if (prev_tok != nullptr && prev_tok->kind == TokenKind::kIdent &&
          !control_keyword(prev_tok->text) && !qualifier_keyword(prev_tok->text)) {
        // `Type name(args)`: a declaration; the constructor call is recorded
        // against the TYPE so ctor edges still exist.
        RawCall ctor;
        ctor.name = prev_tok->text;
        ctor.line = prev_tok->line;
        ctor.args = count_args(j + 1);
        ctor.held_locks = held_names(held);
        node.calls.push_back(std::move(ctor));
        continue;
      }

      RawCall call;
      call.name = name;
      call.line = t.line;
      call.is_method = after_member;
      call.name_is_local = is_local(name);
      if (after_member && j >= 2 && toks()[j - 2].kind == TokenKind::kIdent) {
        const std::string& receiver = tok(j - 2);
        if (receiver == "this") {
          call.receiver_type = node.class_name;
        } else {
          const auto it = locals.find(receiver);
          if (it != locals.end()) call.receiver_type = it->second;
        }
      } else if (prev == "::" && j >= 2 && toks()[j - 2].kind == TokenKind::kIdent) {
        call.is_method = true;
        call.via_scope = true;
        call.receiver_type = tok(j - 2);
      }
      call.args = count_args(j + 1);
      call.held_locks = held_names(held);
      node.calls.push_back(std::move(call));
    }
  }

  /// Argument count of the call group at `open` ('(').
  [[nodiscard]] std::size_t count_args(std::size_t open) const {
    const std::size_t close = skip_group(toks(), open) - 1;  // the ')'
    if (close <= open + 1) return 0;
    std::size_t args = 1;
    int depth = 0;
    for (std::size_t k = open; k < close; ++k) {
      const std::string& t = tok(k);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 1 && t == ",") ++args;
    }
    return args;
  }

  void push_with_tasks(FunctionNode node, std::vector<TaskSpawn> tasks) {
    const std::size_t idx = out.nodes.size();
    out.nodes.push_back(std::move(node));
    for (TaskSpawn& spawn : tasks) {
      spawn.node.task_parent = idx;
      push_with_tasks(std::move(spawn.node), std::move(spawn.children));
    }
  }

  void add_function(const FunctionDef& def) {
    FunctionNode node;
    node.file = unit.path;
    node.module = unit.module;
    node.line = toks()[def.name].line;
    node.name = def.is_dtor ? "~" + tok(def.name) : tok(def.name);
    node.class_name = def.class_name;
    node.qualified =
        node.class_name.empty() ? node.name : node.class_name + "::" + node.name;

    const std::size_t params_open = def.name + 1;  // the '('
    const std::size_t params_end = skip_group(toks(), params_open);  // past ')'
    std::map<std::string, std::string> param_types;
    parse_params(params_open, params_end, node.params, param_types);
    node.arity = node.params.size();

    std::vector<TaskSpawn> tasks;
    scan_body(node, def.body_begin, def.body_end, param_types, tasks);
    push_with_tasks(std::move(node), std::move(tasks));
  }
};

}  // namespace

UnitFunctions extract_functions(const Unit& unit) {
  Extractor extractor{unit, {}};
  for (const FunctionDef& def : unit.functions) extractor.add_function(def);
  extractor.out.virtual_names = unit.virtual_names;
  return std::move(extractor.out);
}

namespace {

/// Candidate filters used by the resolver: exact arity wins when any
/// candidate matches it; same module then same file break remaining ties.
std::vector<std::size_t> prefer(const std::vector<FunctionNode>& nodes,
                                std::vector<std::size_t> cands, const FunctionNode& caller,
                                std::size_t args) {
  auto narrow = [&](auto keep) {
    std::vector<std::size_t> subset;
    for (const std::size_t id : cands) {
      if (keep(nodes[id])) subset.push_back(id);
    }
    if (!subset.empty()) cands = std::move(subset);
  };
  narrow([&](const FunctionNode& n) { return n.arity == args; });
  if (cands.size() > 1) {
    narrow([&](const FunctionNode& n) { return n.module == caller.module; });
  }
  if (cands.size() > 1) {
    narrow([&](const FunctionNode& n) { return n.file == caller.file; });
  }
  return cands;
}

}  // namespace

CallGraph link_callgraph(const std::vector<UnitFunctions>& per_unit) {
  CallGraph g;
  std::set<std::string> virtuals;
  for (const UnitFunctions& uf : per_unit) {
    const std::size_t base = g.nodes.size();
    for (const FunctionNode& node : uf.nodes) {
      g.nodes.push_back(node);
      if (g.nodes.back().task_parent != FunctionNode::kNoParent) {
        g.nodes.back().task_parent += base;
      }
    }
    virtuals.insert(uf.virtual_names.begin(), uf.virtual_names.end());
  }

  std::map<std::string, std::vector<std::size_t>> free_by_name;
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> class_method;
  std::map<std::string, std::vector<std::size_t>> method_by_name;
  for (std::size_t id = 0; id < g.nodes.size(); ++id) {
    const FunctionNode& n = g.nodes[id];
    if (n.is_task_body) continue;
    if (n.class_name.empty()) {
      free_by_name[n.name].push_back(id);
    } else {
      class_method[{n.class_name, n.name}].push_back(id);
      method_by_name[n.name].push_back(id);
    }
  }

  for (std::size_t caller = 0; caller < g.nodes.size(); ++caller) {
    const FunctionNode& node = g.nodes[caller];
    if (node.task_parent != FunctionNode::kNoParent) {
      g.edges.push_back(CallEdge{node.task_parent, caller, node.line, EdgeKind::kTask,
                                 static_cast<std::size_t>(-1)});
    }
    for (std::size_t ci = 0; ci < node.calls.size(); ++ci) {
      const RawCall& call = node.calls[ci];
      if (call.name == "parallel_for" || call.name == "parallel_map") continue;

      auto open = [&](const char* reason) {
        g.opens.push_back(OpenEdge{caller, call.name, call.line, reason});
      };
      auto link = [&](const std::vector<std::size_t>& cands, EdgeKind kind) {
        for (const std::size_t callee : cands) {
          g.edges.push_back(CallEdge{caller, callee, call.line, kind, ci});
        }
      };

      if (call.is_method) {
        if (virtuals.count(call.name) != 0) {
          open("virtual");
          continue;
        }
        if (!call.receiver_type.empty()) {
          const auto it = class_method.find({call.receiver_type, call.name});
          if (it != class_method.end()) {
            link(prefer(g.nodes, it->second, node, call.args), EdgeKind::kMethod);
            continue;
          }
          if (!call.via_scope) continue;  // typed receiver, foreign class: external
          // `X::name(...)` where X is a namespace: fall through to free lookup.
        } else {
          // Untyped receiver (member field, call chain): resolve only when
          // exactly one class defines the method.
          const auto it = method_by_name.find(call.name);
          if (it == method_by_name.end()) continue;  // external (std:: etc.)
          std::vector<std::size_t> cands = prefer(g.nodes, it->second, node, call.args);
          std::set<std::string> classes;
          for (const std::size_t id : cands) classes.insert(g.nodes[id].class_name);
          if (classes.size() == 1) {
            link(cands, EdgeKind::kMethod);
          } else {
            open("ambiguous-receiver");
          }
          continue;
        }
      }

      if (call.name_is_local) {
        open("indirect");  // function pointer / functor through a local
        continue;
      }
      if (!node.class_name.empty()) {
        const auto it = class_method.find({node.class_name, call.name});
        if (it != class_method.end()) {
          link(prefer(g.nodes, it->second, node, call.args), EdgeKind::kMethod);
          continue;
        }
      }
      const auto it = free_by_name.find(call.name);
      if (it != free_by_name.end()) {
        link(prefer(g.nodes, it->second, node, call.args),
             call.is_method ? EdgeKind::kMethod : EdgeKind::kDirect);
        continue;
      }
      if (virtuals.count(call.name) != 0) open("virtual");
      // Anything else is external (std::, macros, C library): no edge.
    }
  }

  std::sort(g.edges.begin(), g.edges.end(), [](const CallEdge& a, const CallEdge& b) {
    return std::tie(a.caller, a.line, a.callee, a.call_index) <
           std::tie(b.caller, b.line, b.callee, b.call_index);
  });
  std::sort(g.opens.begin(), g.opens.end(), [](const OpenEdge& a, const OpenEdge& b) {
    return std::tie(a.caller, a.line, a.name, a.reason) <
           std::tie(b.caller, b.line, b.name, b.reason);
  });

  g.out_ids.assign(g.nodes.size(), {});
  for (const CallEdge& e : g.edges) g.out_ids[e.caller].push_back(e.callee);
  for (std::vector<std::size_t>& ids : g.out_ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return g;
}

CallGraph build_callgraph(const std::vector<Unit>& units, ThreadPool& pool) {
  const std::vector<UnitFunctions> per_unit = pool.parallel_map<UnitFunctions>(
      units.size(), [&](std::size_t i) { return extract_functions(units[i]); });
  return link_callgraph(per_unit);
}

std::string dump_callgraph(const CallGraph& graph) {
  std::string out = "callgraph: " + std::to_string(graph.nodes.size()) + " functions, " +
                    std::to_string(graph.edges.size()) + " edges, " +
                    std::to_string(graph.opens.size()) + " open\n";
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const FunctionNode& n = graph.nodes[id];
    out += "fn " + std::to_string(id) + " " + n.file + ":" + std::to_string(n.line) + " " +
           n.qualified + "/" + std::to_string(n.arity);
    if (n.is_task_body) out += " task";
    if (!n.module.empty()) out += " module=" + n.module;
    out += "\n";
  }
  for (const CallEdge& e : graph.edges) {
    const char* kind = e.kind == EdgeKind::kDirect ? "direct"
                       : e.kind == EdgeKind::kMethod ? "method"
                                                     : "task";
    out += "edge " + std::to_string(e.caller) + " -> " + std::to_string(e.callee) +
           " kind=" + kind + " line=" + std::to_string(e.line) + "\n";
  }
  for (const OpenEdge& e : graph.opens) {
    out += "open " + std::to_string(e.caller) + " -> '" + e.name + "' reason=" + e.reason +
           " line=" + std::to_string(e.line) + "\n";
  }
  return out;
}

}  // namespace upn::analyze
