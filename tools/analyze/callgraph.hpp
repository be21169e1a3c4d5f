// upn_analyze: the whole-program call graph (the lock-order, task-blocking
// and dead-function passes ride on it).
//
// Function extraction scans the bodies of the function definitions the IR's
// scope walker recorded (Unit::functions; it walks no scopes itself).  It is
// per-unit and pure, so the engine fans it out on the util/par ThreadPool
// exactly like unit construction; linking is one ordered merge over the
// per-unit results, so node ids -- and therefore the dump, the edge list,
// and every interprocedural finding -- are byte-identical at every --jobs
// value.
//
// The graph is deliberately conservative where C++ makes precision
// expensive (docs/STATIC_ANALYSIS.md spells out the exact contract):
//
//   * direct calls resolve by (name, arity), preferring exact arity, then
//     same-module, then same-file candidates; when several candidates still
//     survive, ALL of them get edges rather than guessing one;
//   * method calls resolve through declared local/parameter types
//     (`Type obj; obj.run()` -> Type::run) and explicit `Type::run(...)`
//     qualification; receivers extraction cannot type (members, call
//     chains) resolve only when exactly one class defines the method;
//   * virtual methods, calls through locals/parameters (function pointers,
//     functors), and ambiguous untyped receivers become OPEN edges:
//     recorded and dumped, but never traversed by the passes -- documented
//     imprecision instead of silently wrong edges;
//   * lambdas handed to ThreadPool::parallel_for/parallel_map become task
//     pseudo-nodes ("<fn>/task@<line>") with a `task` edge from the
//     enclosing function; the task-blocking pass keys on exactly these
//     nodes.
//
// Besides the edges, extraction records per function the blocking
// operations the lock-order pass consumes: lock acquisitions with the
// held-lock set, condition-variable waits, and IO.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace upn {
class ThreadPool;
}  // namespace upn

namespace upn::analyze {

struct Unit;

enum class BlockKind : char {
  kLock = 'l',  ///< lock_guard/unique_lock/scoped_lock construction, .lock()
  kWait = 'w',  ///< condition-variable .wait(...)
  kIo = 'i',    ///< file/stream IO (ifstream, fopen, printf, cout, ...)
};

struct BlockingOp {
  BlockKind kind = BlockKind::kLock;
  std::string what;               ///< lock/mutex name, receiver, or IO facility
  std::size_t line = 0;
  std::vector<std::string> held;  ///< locks already held at this operation
};

/// One call site inside a function body, before linking.
struct RawCall {
  std::string name;           ///< callee identifier (last path component)
  std::string receiver_type;  ///< resolved local/param type, or explicit
                              ///< `X::name(...)` qualifier; "" when unknown
  std::size_t line = 0;
  std::size_t args = 0;
  bool is_method = false;     ///< written `obj.name(` / `obj->name(` / `X::name(`
  bool via_scope = false;     ///< written `X::name(` (X may be a namespace)
  bool name_is_local = false; ///< callee name is a local/param of the caller
  std::vector<std::string> held_locks;  ///< locks held at the call site
};

struct FunctionNode {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::string file;
  std::size_t line = 0;      ///< 1-based line of the name token
  std::string module;        ///< module_of(file); "" outside src/
  std::string name;          ///< "run", "~Router", "task@42"
  std::string class_name;    ///< "" for free functions
  std::string qualified;     ///< "Router::run", "run", "run/task@42"
  std::size_t arity = 0;
  std::vector<std::string> params;  ///< parameter names, in order

  bool is_task_body = false; ///< lambda handed to parallel_for/parallel_map

  std::vector<BlockingOp> blocking;
  std::vector<RawCall> calls;

  /// For task pseudo-nodes: the enclosing function's node id (per-unit index
  /// before the merge, global id after).  kNoParent otherwise.
  std::size_t task_parent = kNoParent;
};

/// Per-unit extraction result: the function nodes in source order (each task
/// pseudo-node directly after its parent) plus every method name the unit
/// declares `virtual` (Unit::virtual_names, the open-edge oracle).
struct UnitFunctions {
  std::vector<FunctionNode> nodes;
  std::vector<std::string> virtual_names;  ///< sorted, unique
};

/// Scans one unit.  Pure and deterministic; safe to fan out per unit.
[[nodiscard]] UnitFunctions extract_functions(const Unit& unit);

enum class EdgeKind : char {
  kDirect = 'd',
  kMethod = 'm',
  kTask = 't',
};

struct CallEdge {
  std::size_t caller = 0;
  std::size_t callee = 0;
  std::size_t line = 0;
  EdgeKind kind = EdgeKind::kDirect;
  /// Index into nodes[caller].calls, or RawCall-less for task edges.
  std::size_t call_index = static_cast<std::size_t>(-1);
};

/// An unresolved target the passes must treat as "could do anything":
/// reason is "virtual", "indirect" (through a local/parameter), or
/// "ambiguous-receiver".
struct OpenEdge {
  std::size_t caller = 0;
  std::string name;
  std::size_t line = 0;
  std::string reason;
};

struct CallGraph {
  std::vector<FunctionNode> nodes;
  std::vector<CallEdge> edges;  ///< sorted by (caller, line, callee)
  std::vector<OpenEdge> opens;  ///< sorted by (caller, line, name)
  /// Callees over resolved edges: sorted unique node ids.
  std::vector<std::vector<std::size_t>> out_ids;
};

/// Merges per-unit extractions (in unit order) and resolves calls.
[[nodiscard]] CallGraph link_callgraph(const std::vector<UnitFunctions>& per_unit);

/// Extraction fanned out on `pool` (collected by index), then one ordered
/// link: the result is independent of the pool's thread count.
[[nodiscard]] CallGraph build_callgraph(const std::vector<Unit>& units, ThreadPool& pool);

/// A deterministic text dump: one `fn` line per node in id order, then
/// `edge` / `open` lines in sorted order.
[[nodiscard]] std::string dump_callgraph(const CallGraph& graph);

}  // namespace upn::analyze
