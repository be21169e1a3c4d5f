// Whole-program call-graph tests for upn_analyze: overload resolution by
// arity, method resolution through typed receivers, ThreadPool task-body
// edges, conservative open edges (virtual / indirect / ambiguous receiver),
// the determinism contract for the graph dump at --jobs {1, 2, 7}, and both
// fixture trees' dumps against their committed goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/par.hpp"
#include "tools/analyze/callgraph.hpp"
#include "tools/analyze/engine.hpp"
#include "tools/analyze/ir.hpp"

namespace upn::analyze {
namespace {

CallGraph graph_of(const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<UnitFunctions> per_unit;
  per_unit.reserve(files.size());
  for (const auto& [path, text] : files) {
    per_unit.push_back(extract_functions(build_unit(path, text)));
  }
  return link_callgraph(per_unit);
}

std::size_t node_id(const CallGraph& g, const std::string& qualified,
                    std::size_t arity) {
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].qualified == qualified && g.nodes[i].arity == arity) return i;
  }
  ADD_FAILURE() << "no node " << qualified << "/" << arity;
  return static_cast<std::size_t>(-1);
}

bool has_edge(const CallGraph& g, std::size_t caller, std::size_t callee,
              EdgeKind kind) {
  return std::any_of(g.edges.begin(), g.edges.end(), [&](const CallEdge& e) {
    return e.caller == caller && e.callee == callee && e.kind == kind;
  });
}

bool has_open(const CallGraph& g, std::size_t caller, const std::string& name,
              const std::string& reason) {
  return std::any_of(g.opens.begin(), g.opens.end(), [&](const OpenEdge& e) {
    return e.caller == caller && e.name == name && e.reason == reason;
  });
}

// ---- resolution -----------------------------------------------------------

TEST(Callgraph, OverloadsResolveByArity) {
  const CallGraph g = graph_of({{"src/core/a.cpp",
                                 "namespace demo {\n"
                                 "int scale(int v) { return v * 2; }\n"
                                 "int scale(int v, int w) { return v * w; }\n"
                                 "int use() { return scale(1) + scale(2, 3); }\n"
                                 "}  // namespace demo\n"}});
  const std::size_t one = node_id(g, "scale", 1);
  const std::size_t two = node_id(g, "scale", 2);
  const std::size_t use = node_id(g, "use", 0);
  EXPECT_TRUE(has_edge(g, use, one, EdgeKind::kDirect));
  EXPECT_TRUE(has_edge(g, use, two, EdgeKind::kDirect));
  // Arity narrowed each call to exactly one overload.
  EXPECT_EQ(g.out_ids[use].size(), 2u);
}

TEST(Callgraph, DirectCallsLinkAcrossTranslationUnits) {
  const CallGraph g = graph_of(
      {{"src/core/def.cpp",
        "namespace demo {\n"
        "int helper(int v) { return v + 1; }\n"
        "}  // namespace demo\n"},
       {"src/core/use.cpp",
        "namespace demo {\n"
        "int caller(int v) { return helper(v); }\n"
        "}  // namespace demo\n"}});
  EXPECT_TRUE(has_edge(g, node_id(g, "caller", 1), node_id(g, "helper", 1),
                       EdgeKind::kDirect));
}

TEST(Callgraph, MethodCallsResolveThroughTypedReceivers) {
  const CallGraph g = graph_of({{"src/core/r.cpp",
                                 "namespace demo {\n"
                                 "struct Router {\n"
                                 "  int route(int p) { return p; }\n"
                                 "};\n"
                                 "int drive(Router& router) { return router.route(4); }\n"
                                 "}  // namespace demo\n"}});
  EXPECT_TRUE(has_edge(g, node_id(g, "drive", 1), node_id(g, "Router::route", 1),
                       EdgeKind::kMethod));
  EXPECT_TRUE(g.opens.empty());
}

TEST(Callgraph, TaskBodiesBecomePseudoNodesWithTaskEdges) {
  const CallGraph g = graph_of(
      {{"src/core/t.cpp",
        "namespace demo {\n"
        "int work(int v) { return v; }\n"
        "void fill(Pool& pool, std::vector<int>& out) {\n"
        "  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = work(1); });\n"
        "}\n"
        "}  // namespace demo\n"}});
  const auto task = std::find_if(g.nodes.begin(), g.nodes.end(),
                                 [](const FunctionNode& n) { return n.is_task_body; });
  ASSERT_NE(task, g.nodes.end());
  const std::size_t task_id = static_cast<std::size_t>(task - g.nodes.begin());
  const std::size_t fill = node_id(g, "fill", 2);
  EXPECT_EQ(task->task_parent, fill);
  EXPECT_TRUE(has_edge(g, fill, task_id, EdgeKind::kTask));
  // The body's own calls hang off the pseudo-node, not the parent.
  EXPECT_TRUE(has_edge(g, task_id, node_id(g, "work", 1), EdgeKind::kDirect));
  EXPECT_FALSE(has_edge(g, fill, node_id(g, "work", 1), EdgeKind::kDirect));
}

// ---- open-edge conservatism ----------------------------------------------

TEST(Callgraph, VirtualCallsStayOpen) {
  const CallGraph g = graph_of({{"src/core/v.cpp",
                                 "namespace demo {\n"
                                 "struct Policy {\n"
                                 "  virtual int next(int at) = 0;\n"
                                 "};\n"
                                 "int step(Policy& policy) { return policy.next(1); }\n"
                                 "}  // namespace demo\n"}});
  const std::size_t step = node_id(g, "step", 1);
  EXPECT_TRUE(has_open(g, step, "next", "virtual"));
  EXPECT_TRUE(g.out_ids[step].empty());
}

TEST(Callgraph, CallsThroughLocalsStayOpenAsIndirect) {
  const CallGraph g = graph_of({{"src/core/i.cpp",
                                 "namespace demo {\n"
                                 "int pick(int v) { return v; }\n"
                                 "int apply(int v) {\n"
                                 "  Handler fn = pick;\n"
                                 "  return fn(v);\n"
                                 "}\n"
                                 "}  // namespace demo\n"}});
  EXPECT_TRUE(has_open(g, node_id(g, "apply", 1), "fn", "indirect"));
}

TEST(Callgraph, UntypedReceiverWithSeveralCandidateClassesStaysOpen) {
  const CallGraph g = graph_of({{"src/core/m.cpp",
                                 "namespace demo {\n"
                                 "struct Alpha {\n"
                                 "  int get(int k) { return k; }\n"
                                 "};\n"
                                 "struct Beta {\n"
                                 "  int get(int k) { return k + 1; }\n"
                                 "};\n"
                                 "int fetch(std::vector<Alpha>& items) { return items[0].get(2); }\n"
                                 "}  // namespace demo\n"}});
  EXPECT_TRUE(has_open(g, node_id(g, "fetch", 1), "get", "ambiguous-receiver"));
}

TEST(Callgraph, UntypedReceiverWithOneCandidateClassResolves) {
  const CallGraph g = graph_of({{"src/core/s.cpp",
                                 "namespace demo {\n"
                                 "struct Only {\n"
                                 "  int get(int k) { return k; }\n"
                                 "};\n"
                                 "int fetch(std::vector<Only>& items) { return items[0].get(2); }\n"
                                 "}  // namespace demo\n"}});
  EXPECT_TRUE(has_edge(g, node_id(g, "fetch", 1), node_id(g, "Only::get", 1),
                       EdgeKind::kMethod));
  EXPECT_TRUE(g.opens.empty());
}

// `class` inside a template parameter list declares no class scope, so a
// function template is a function and a class template still a class; a
// constructor's brace member initializers are not its body.
TEST(Callgraph, TemplateParametersAndBraceMemberInitializers) {
  const CallGraph g = graph_of({{"src/core/t.cpp",
                                 "namespace demo {\n"
                                 "int helper(int v) { return v + 1; }\n"
                                 "template <class Id, class Route>\n"
                                 "int relay(Id id, Route route) { return helper(route(id)); }\n"
                                 "template <class T>\n"
                                 "struct Box {\n"
                                 "  int get() const { return helper(1); }\n"
                                 "};\n"
                                 "struct Holder {\n"
                                 "  explicit Holder(int v) : value_{v}, other_(v) { helper(v); }\n"
                                 "  int value_;\n"
                                 "  int other_;\n"
                                 "};\n"
                                 "}  // namespace demo\n"}});
  const std::size_t helper = node_id(g, "helper", 1);
  EXPECT_TRUE(has_edge(g, node_id(g, "relay", 2), helper, EdgeKind::kDirect));
  EXPECT_TRUE(has_edge(g, node_id(g, "Box::get", 0), helper, EdgeKind::kDirect));
  EXPECT_TRUE(has_edge(g, node_id(g, "Holder::Holder", 1), helper, EdgeKind::kDirect));
}

// ---- dump determinism and goldens ---------------------------------------

std::vector<Unit> fixture_units(const std::string& root, const std::vector<std::string>& paths) {
  TreeOptions options;
  options.root = root;
  options.paths = paths;
  options.excludes.clear();
  Input input;
  std::string error;
  EXPECT_TRUE(collect_tree(options, input, error)) << error;
  std::vector<Unit> units;
  for (const SourceFile& file : input.files) units.push_back(build_unit(file.path, file.content));
  return units;
}

TEST(CallgraphDeterminism, DumpIsByteIdenticalAtJobs127) {
  const std::vector<Unit> units = fixture_units(UPN_ANALYZE_BAD_DIR, {"src"});
  std::string dumps[3];
  const unsigned jobs[] = {1, 2, 7};
  for (int i = 0; i < 3; ++i) {
    ThreadPool pool{jobs[i]};
    dumps[i] = dump_callgraph(build_callgraph(units, pool));
  }
  EXPECT_EQ(dumps[0].substr(0, 10), "callgraph:");
  EXPECT_NE(dumps[0].find("task"), std::string::npos) << dumps[0];
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST(CallgraphGolden, FixtureTreeDumpsMatchGoldens) {
  const std::pair<const char*, const char*> trees[] = {
      {UPN_ANALYZE_BAD_DIR, "bad_callgraph.txt"}, {UPN_ANALYZE_CLEAN_DIR, "clean_callgraph.txt"}};
  for (const auto& [root, golden_name] : trees) {
    std::ifstream in{std::string{UPN_ANALYZE_GOLDEN_DIR} + "/" + golden_name, std::ios::binary};
    ASSERT_TRUE(in) << golden_name;
    std::ostringstream golden;
    golden << in.rdbuf();
    ThreadPool pool{2};
    EXPECT_EQ(dump_callgraph(build_callgraph(fixture_units(root, {"src", "tests"}), pool)),
              golden.str())
        << golden_name;
  }
}

}  // namespace
}  // namespace upn::analyze
