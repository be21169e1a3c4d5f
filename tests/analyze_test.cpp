// Engine-level tests for upn_analyze: IR construction (stripping, includes,
// declaration indexing), each source pass family against in-memory inputs
// and the committed fixture trees, tree collection, and the determinism
// contract -- the text report is byte-identical at --jobs {1, 2, 7}.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/callgraph.hpp"
#include "tools/analyze/engine.hpp"
#include "tools/analyze/ir.hpp"
#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

/// Both fixture trees' inputs.
const std::vector<std::string> kTreePaths = {"src", "tests"};

Report analyze_tree(const std::string& root, const std::vector<std::string>& paths,
                    unsigned jobs = 0) {
  TreeOptions options;
  options.root = root;
  options.paths = paths;
  options.excludes.clear();  // fixture trees live under tests/fixtures-*
  options.jobs = jobs;
  Input input;
  std::string error;
  EXPECT_TRUE(collect_tree(options, input, error)) << error;
  return analyze(input);
}

// ---- IR construction ------------------------------------------------------

TEST(AnalyzeIr, StripsCommentsAndStringsPreservingLineLengths) {
  const Unit unit = build_unit(
      "src/util/demo.cpp",
      "int a = 1; // trailing rand()\n"
      "const char* s = \"std::endl inside\";\n"
      "/* block rand()\n"
      "   still rand() */ int b = 2;\n");
  ASSERT_EQ(unit.code.size(), 4u);
  EXPECT_EQ(unit.code[0], "int a = 1; ");
  EXPECT_EQ(unit.code[1].find("endl"), std::string::npos);
  EXPECT_EQ(unit.code[1].size(), unit.raw[1].size());
  EXPECT_EQ(unit.code[2].find("rand"), std::string::npos);
  EXPECT_NE(unit.code[3].find("int b = 2;"), std::string::npos);
}

TEST(AnalyzeIr, ScansQuotedAndSystemIncludes) {
  const Unit unit = build_unit(
      "src/core/demo.cpp",
      "#include <vector>\n"
      "#include \"src/util/rng.hpp\"\n"
      "// #include \"src/util/not_really.hpp\"\n");
  ASSERT_EQ(unit.includes.size(), 2u);
  EXPECT_FALSE(unit.includes[0].quoted);
  EXPECT_EQ(unit.includes[0].target, "vector");
  EXPECT_TRUE(unit.includes[1].quoted);
  EXPECT_EQ(unit.includes[1].target, "src/util/rng.hpp");
  EXPECT_EQ(unit.includes[1].line, 2u);
}

TEST(AnalyzeIr, ModuleOfMapsSrcSubdirectories) {
  EXPECT_EQ(module_of("src/topology/graph.hpp"), "topology");
  EXPECT_EQ(module_of("src/util/par.cpp"), "util");
  // Nested directories are their own layering units, distinct from the
  // parent module.
  EXPECT_EQ(module_of("src/routing/online/route_table.hpp"), "routing/online");
  EXPECT_EQ(module_of("src/routing/router.cpp"), "routing");
  EXPECT_EQ(module_of("tools/analyze/ir.cpp"), "");
  EXPECT_EQ(module_of("tests/util_test.cpp"), "");
}

TEST(AnalyzeIr, IndexesPrototypesAndDefinitions) {
  const Unit unit = build_unit("src/util/demo.hpp",
                               "#pragma once\n"
                               "namespace upn {\n"
                               "int declared(int v);\n"
                               "int defined(int v) { return v + 1; }\n"
                               "}  // namespace upn\n");
  ASSERT_EQ(unit.decls.size(), 2u);
  EXPECT_EQ(unit.decls[0].name, "declared");
  EXPECT_FALSE(unit.decls[0].has_body);
  EXPECT_EQ(unit.decls[1].name, "defined");
  EXPECT_TRUE(unit.decls[1].has_body);
}

// One scope walk feeds both the declaration index and the call graph, so they
// agree on these shapes: a prototype after an in-class constructor body
// (`grow`) and a definition after an out-of-line destructor (`use`) are
// indexed, and an `operator()` body yields neither a declaration nor a node.
TEST(AnalyzeIr, OneWalkerIndexesDeclarationsAndFunctionDefinitions) {
  const Unit unit = build_unit("src/core/shapes.hpp",
                               "#pragma once\n"
                               "namespace demo {\n"
                               "enum class Mode { kFast, kSlow };\n"
                               "class Widget {\n"
                               " public:\n"
                               "  explicit Widget(int size) : size_(size) {}\n"
                               "  void grow(int by);\n"
                               "  Widget();\n"
                               "  ~Widget();\n"
                               "  int operator()(int add) const { return size_ + add; }\n"
                               "  virtual int area() const;\n"
                               "  int size_ = 0;\n"
                               "};\n"
                               "template <typename T>\n"
                               "T twice(T v) { return v + v; }\n"
                               "Widget::Widget() : size_(0) {}\n"
                               "Widget::~Widget() { size_ = 0; }\n"
                               "int use(Widget& w) { return w.area() + twice(w.size_); }\n"
                               "}  // namespace demo\n");
  std::vector<std::string> decls;
  for (const Declaration& d : unit.decls) {
    decls.push_back(std::to_string(d.line) + " " + static_cast<char>(d.kind) + " " + d.name +
                    (d.has_body ? " body" : ""));
  }
  EXPECT_EQ(decls, (std::vector<std::string>{"3 t Mode", "3 c kFast", "3 c kSlow", "4 t Widget",
                                             "7 f grow", "11 f area", "12 c size_",
                                             "15 f twice body", "16 f Widget body",
                                             "18 f use body"}));

  const UnitFunctions fns = extract_functions(unit);
  std::vector<std::string> nodes;
  for (const FunctionNode& n : fns.nodes) {
    nodes.push_back(std::to_string(n.line) + " " + n.qualified + "/" + std::to_string(n.arity));
  }
  EXPECT_EQ(nodes, (std::vector<std::string>{"6 Widget::Widget/1", "15 twice/1",
                                             "16 Widget::Widget/0", "17 Widget::~Widget/0",
                                             "18 use/1"}));
  EXPECT_EQ(fns.virtual_names, (std::vector<std::string>{"area"}));
}

// ---- single-file rules (banned patterns + flow) ---------------------------

std::vector<Finding> rules_on(const std::string& path, const std::string& text) {
  return run_single_file_rules(build_unit(path, text));
}

TEST(AnalyzeRules, BannedPatternsFire) {
  const std::vector<Finding> findings = rules_on("src/util/demo.cpp",
                                                 "int a = rand();\n"
                                                 "int b = std::rand();\n"
                                                 "std::mt19937 gen;\n"
                                                 "upn::Rng rng{42};\n"
                                                 "std::cout << x << std::endl;\n");
  EXPECT_EQ(rules_of(findings), (std::vector<std::string>{"no-std-rand", "no-std-rand",
                                                          "no-unseeded-rng", "no-endl"}));
  EXPECT_EQ(findings[2].line, 3u);
}

TEST(AnalyzeRules, BannedWordsInCommentsStringsAndIdentifiersAreFine) {
  const std::vector<Finding> findings = rules_on("src/util/demo.cpp",
                                                 "// never call rand() here\n"
                                                 "const char* s = \"rand()\";\n"
                                                 "int mirand = my_rand(); (void)operand;\n"
                                                 "/* std::endl in a block\n"
                                                 "   comment */ int x = 0;\n");
  EXPECT_TRUE(findings.empty()) << findings.front().format();
}

TEST(AnalyzeRules, PragmaOnceRequiredInHeadersOnly) {
  const std::string body = "namespace x {}\n";
  EXPECT_TRUE(has_rule(rules_on("a.hpp", body), "pragma-once"));
  EXPECT_FALSE(has_rule(rules_on("a.cpp", body), "pragma-once"));
  EXPECT_FALSE(has_rule(rules_on("a.hpp", "#pragma once\n" + body), "pragma-once"));
}

TEST(AnalyzeRules, RngByValueFiresAndReferenceIsQuiet) {
  const Unit by_value = build_unit("src/core/demo.hpp",
                                   "#pragma once\n"
                                   "void run(upn::Rng rng);\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(by_value), "rng-by-value"));
  const Unit by_ref = build_unit("src/core/demo.hpp",
                                 "#pragma once\n"
                                 "void run(upn::Rng& rng);\n"
                                 "void run2(const Rng& rng);\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(by_ref), "rng-by-value"));
}

TEST(AnalyzeRules, NarrowingCastNeedsAdjacentContract) {
  const Unit bare = build_unit("src/core/demo.cpp",
                               "void f(long big) {\n"
                               "  auto t = static_cast<std::uint16_t>(big);\n"
                               "}\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(bare), "narrowing-cast"));
  const Unit contracted = build_unit("src/core/demo.cpp",
                                     "void f(long big) {\n"
                                     "  UPN_REQUIRE(big <= 65535);\n"
                                     "  auto t = static_cast<std::uint16_t>(big);\n"
                                     "}\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(contracted), "narrowing-cast"));
  const Unit wide = build_unit("src/core/demo.cpp",
                               "void f(long big) {\n"
                               "  auto t = static_cast<std::uint32_t>(big);\n"
                               "}\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(wide), "narrowing-cast"));
}

TEST(AnalyzeRules, RawThreadOutsideParFiresButParAndThreadIdAreExempt) {
  const Unit outside = build_unit("src/core/demo.cpp", "std::thread t{[] {}};\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(outside), "no-raw-thread"));
  const Unit inside = build_unit("src/util/par.cpp", "std::thread t{[] {}};\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(inside), "no-raw-thread"));
  const Unit id_use = build_unit("src/core/demo.cpp", "std::thread::id who;\n");
  EXPECT_FALSE(has_rule(run_single_file_rules(id_use), "no-raw-thread"));
}

TEST(AnalyzeRules, ThreadDetachFires) {
  const Unit unit = build_unit("src/core/demo.cpp",
                               "void f(std::thread& t) { t.detach(); }\n");
  EXPECT_TRUE(has_rule(run_single_file_rules(unit), "thread-detach"));
}

TEST(AnalyzeRules, WaiverSilencesExactlyTheNamedRuleAndNeedsAReason) {
  const std::vector<Finding> findings =
      rules_on("src/core/demo.cpp",
               "int r = rand();  // upn-analyze-waive(no-std-rand: seeded upstream)\n"
               "std::cout << std::endl;  // upn-analyze-waive(no-std-rand: wrong rule)\n"
               "std::mt19937 gen;  // upn-analyze-waive(no-unseeded-rng: )\n");
  EXPECT_EQ(rules_of(findings), (std::vector<std::string>{"no-endl", "no-unseeded-rng"}));
}

// ---- layering -------------------------------------------------------------

TEST(AnalyzeLayering, ParsesLayersAndWaivers) {
  const LayerSpec spec = parse_layers("docs/ARCHITECTURE.layers",
                                      "# comment\n"
                                      "layer util\n"
                                      "layer core: util\n"
                                      "waive core -> pebble: legacy shim\n");
  EXPECT_TRUE(spec.errors.empty());
  ASSERT_EQ(spec.deps.count("core"), 1u);
  EXPECT_EQ(spec.deps.at("core"), std::vector<std::string>{"util"});
  EXPECT_EQ(spec.waivers.count({"core", "pebble"}), 1u);
}

TEST(AnalyzeLayering, MalformedLinesAreReported) {
  const LayerSpec spec = parse_layers("L", "nonsense here\n");
  EXPECT_TRUE(has_rule(spec.errors, "layers-malformed"));
}

TEST(AnalyzeLayering, UndeclaredEdgeAndCycleAndStaleWaiver) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text =
      "layer util\n"
      "layer core: util\n"
      "layer alpha: beta\n"
      "layer beta: alpha\n"
      "waive core -> alpha: long gone\n";
  input.files.push_back({"src/util/uses_core.hpp",
                         "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.files.push_back({"src/core/a.hpp", "#pragma once\n#include \"src/core/b.hpp\"\n"});
  input.files.push_back({"src/core/b.hpp", "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_TRUE(has_rule(report.findings, "layering-declared-cycle"));
  EXPECT_TRUE(has_rule(report.findings, "layering-undeclared-edge"));
  EXPECT_TRUE(has_rule(report.findings, "layering-stale-waiver"));
  EXPECT_TRUE(has_rule(report.findings, "include-cycle"));
}

TEST(AnalyzeLayering, DeclaredAndWaivedEdgesAreQuiet) {
  Input input;
  input.layers_path = "L";
  input.layers_text =
      "layer util\n"
      "layer core: util\n"
      "waive util -> core: fixture back-edge\n";
  input.files.push_back({"src/core/a.hpp", "#pragma once\n#include \"src/util/b.hpp\"\n"});
  input.files.push_back({"src/util/b.hpp", "#pragma once\nnamespace upn { using Id = int; }\n"});
  input.files.push_back({"src/util/back.hpp", "#pragma once\n#include \"src/core/a.hpp\"\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_FALSE(has_rule(report.findings, "layering-undeclared-edge"))
      << report.render_text();
  EXPECT_FALSE(has_rule(report.findings, "layering-stale-waiver"));
}

// ---- include hygiene ------------------------------------------------------

TEST(AnalyzeHygiene, UnusedIncludeFlaggedUsedIncludeQuiet) {
  Input input;
  input.files.push_back({"src/util/names.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "inline int forty() { return 40; }\n"
                         "}\n"});
  input.files.push_back({"src/util/user.cpp",
                         "#include \"src/util/names.hpp\"\n"
                         "int x = upn::forty();\n"});
  input.files.push_back({"src/util/nonuser.cpp",
                         "#include \"src/util/names.hpp\"\n"
                         "int y = 2;\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  ASSERT_TRUE(has_rule(report.findings, "unused-include")) << report.render_text();
  for (const Finding& f : report.findings) {
    if (f.rule == "unused-include") {
      EXPECT_EQ(f.file, "src/util/nonuser.cpp");
    }
  }
}

TEST(AnalyzeHygiene, TransitiveUseCountsAsUse) {
  Input input;
  input.files.push_back({"src/util/inner.hpp",
                         "#pragma once\n"
                         "namespace upn {\n"
                         "inline int deep() { return 7; }\n"
                         "}\n"});
  input.files.push_back({"src/util/outer.hpp",
                         "#pragma once\n"
                         "#include \"src/util/inner.hpp\"\n"
                         "namespace upn {\n"
                         "inline int shallow() { return deep(); }\n"
                         "}\n"});
  input.files.push_back({"src/util/user.cpp",
                         "#include \"src/util/outer.hpp\"\n"
                         "int x = upn::deep();\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  for (const Finding& f : report.findings) {
    EXPECT_NE(f.file, "src/util/user.cpp") << f.format();
  }
}

// ---- concurrency safety ---------------------------------------------------

TEST(AnalyzeConcurrency, ByReferenceAccumulationIntoOuterStateFires) {
  const Unit unit = build_unit(
      "src/core/sum.cpp",
      "void f(ThreadPool& pool, const std::vector<long>& in) {\n"
      "  long total = 0;\n"
      "  pool.parallel_for(in.size(), [&](std::size_t i) {\n"
      "    total += in[i];\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_concurrency_pass(unit), "par-shared-mutation"));
}

TEST(AnalyzeConcurrency, IndexDisjointAtomicAndLockedWritesAreQuiet) {
  const Unit disjoint = build_unit(
      "src/core/fill.cpp",
      "void f(ThreadPool& pool, std::vector<long>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = static_cast<long>(i);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(disjoint).empty());

  const Unit atomic = build_unit(
      "src/core/count.cpp",
      "void f(ThreadPool& pool, std::size_t n) {\n"
      "  std::atomic<long> total{0};\n"
      "  pool.parallel_for(n, [&](std::size_t i) {\n"
      "    total += static_cast<long>(i);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(atomic).empty());

  const Unit locked = build_unit(
      "src/core/merge.cpp",
      "void f(ThreadPool& pool, std::size_t n, std::vector<long>& all) {\n"
      "  std::mutex m;\n"
      "  pool.parallel_for(n, [&](std::size_t i) {\n"
      "    std::lock_guard<std::mutex> hold(m);\n"
      "    all.push_back(static_cast<long>(i));\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(locked).empty());
}

TEST(AnalyzeConcurrency, OuterRngSharedAcrossTasksFiresButSubStreamsAreQuiet) {
  const Unit shared = build_unit(
      "src/core/draw.cpp",
      "void f(ThreadPool& pool, Rng& rng, std::vector<std::uint64_t>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = rng.next_u64();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_concurrency_pass(shared), "par-shared-rng"));

  const Unit streamed = build_unit(
      "src/core/draw.cpp",
      "void f(ThreadPool& pool, std::uint64_t seed, std::vector<std::uint64_t>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
      "    Rng rng = Rng::stream(seed, i);\n"
      "    out[i] = rng.next_u64();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(run_concurrency_pass(streamed).empty());
}

// ---- determinism taint ----------------------------------------------------

TEST(AnalyzeTaint, UnorderedOrderFlowsToSinkButSortSanitizes) {
  const Unit tainted = build_unit(
      "src/core/stats.cpp",
      "void f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  long total = 0;\n"
      "  for (const auto& [k, v] : counts) {\n"
      "    total += v;\n"
      "  }\n"
      "  UPN_OBS_COUNT(\"demo.total\", total);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(tainted), "taint-unordered-order"));

  const Unit sorted = build_unit(
      "src/core/stats.cpp",
      "void f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  std::vector<int> values;\n"
      "  for (const auto& [k, v] : counts) {\n"
      "    values.push_back(v);\n"
      "  }\n"
      "  std::sort(values.begin(), values.end());\n"
      "  UPN_OBS_COUNT(\"demo.first\", values.empty() ? 0 : values[0]);\n"
      "}\n");
  EXPECT_TRUE(run_determinism_taint_pass(sorted).empty());

  // Quiet too: the same iteration with no sink, an unordered container
  // nested inside a vector (iterating the vector is deterministic), and an
  // ordered std::map.
  for (const char* text : {"void f() {\n"
                           "  std::unordered_map<int, int> counts;\n"
                           "  long total = 0;\n"
                           "  for (const auto& [k, v] : counts) {\n"
                           "    total += v;\n"
                           "  }\n"
                           "}\n",
                           "void f() {\n"
                           "  std::vector<std::unordered_map<int, int>> buckets;\n"
                           "  long n = 0;\n"
                           "  for (const auto& bucket : buckets) {\n"
                           "    n += 1;\n"
                           "  }\n"
                           "  UPN_OBS_COUNT(\"demo.n\", n);\n"
                           "}\n",
                           "void f() {\n"
                           "  std::map<int, int> counts;\n"
                           "  long total = 0;\n"
                           "  for (const auto& [k, v] : counts) {\n"
                           "    total += v;\n"
                           "  }\n"
                           "  UPN_OBS_COUNT(\"demo.total\", total);\n"
                           "}\n"}) {
    EXPECT_TRUE(run_determinism_taint_pass(build_unit("src/core/stats.cpp", text)).empty())
        << text;
  }
}

TEST(AnalyzeTaint, ThreadIdAndAddressSourcesFlowToSinks) {
  const Unit thread_id = build_unit(
      "src/core/who.cpp",
      "void f() {\n"
      "  const std::size_t me = std::hash<std::thread::id>{}(std::this_thread::get_id());\n"
      "  UPN_OBS_COUNT(\"demo.me\", me);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(thread_id), "taint-thread-id"));

  const Unit address = build_unit(
      "src/core/where.cpp",
      "void f(const int* p) {\n"
      "  const auto where = reinterpret_cast<std::uintptr_t>(p);\n"
      "  UPN_OBS_COUNT(\"demo.where\", where);\n"
      "}\n");
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(address), "taint-address"));
}

TEST(AnalyzeTaint, TimingFlowFiresOutsideObsButObsAndHarnessAreExempt) {
  const std::string body =
      "void f() {\n"
      "  const auto t0 = std::chrono::steady_clock::now();\n"
      "  UPN_OBS_COUNT(\"demo.t0\", t0.time_since_epoch().count());\n"
      "}\n";
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(build_unit("src/core/t.cpp", body)),
                       "taint-timing"));
  EXPECT_TRUE(run_determinism_taint_pass(build_unit("src/obs/t.cpp", body)).empty());
  EXPECT_TRUE(run_determinism_taint_pass(build_unit("bench/harness.cpp", body)).empty());
  EXPECT_TRUE(run_determinism_taint_pass(build_unit("bench/harness.hpp", body)).empty());

  const std::string posix =
      "clock_gettime(CLOCK_MONOTONIC, &ts);\n"
      "UPN_OBS_COUNT(\"demo.sec\", ts.tv_sec);";
  EXPECT_TRUE(has_rule(run_determinism_taint_pass(build_unit("src/core/t.cpp", posix + "\n")),
                       "taint-timing"));
  // A waiver with a reason silences the sink line.
  EXPECT_TRUE(run_determinism_taint_pass(
                  build_unit("src/core/t.cpp",
                             posix + "  // upn-analyze-waive(taint-timing: fixture)\n"))
                  .empty());
  // A clock read that stays on the timing side is quiet.
  EXPECT_TRUE(run_determinism_taint_pass(
                  build_unit("src/core/t.cpp",
                             "const auto t0 = std::chrono::steady_clock::now();\n"))
                  .empty());
}

// ---- hot-path performance -------------------------------------------------

namespace {

Input hotpath_input(const std::string& path, const std::string& text) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text = "layer util\nlayer hot: util\nhotpath hot\n";
  input.files.push_back({path, text});
  input.jobs = 1;
  return input;
}

}  // namespace

TEST(AnalyzeHotpath, BannedContainerLoopAllocAndVirtualFireOnlyInHotpathModules) {
  const std::string text =
      "#pragma once\n"
      "struct Engine {\n"
      "  virtual int next_hop(int at) = 0;\n"
      "  std::map<int, int> table;\n"
      "};\n"
      "inline void churn(std::vector<int*>& out) {\n"
      "  for (int i = 0; i < 8; ++i) {\n"
      "    out.push_back(new int(i));\n"
      "  }\n"
      "}\n";
  const Report hot = analyze(hotpath_input("src/hot/engine.hpp", text));
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-container")) << hot.render_text();
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-alloc"));
  EXPECT_TRUE(has_rule(hot.findings, "hotpath-virtual"));

  // The identical file in a module with no hotpath directive is quiet.
  const Report cold = analyze(hotpath_input("src/util/engine.hpp", text));
  for (const Finding& f : cold.findings) {
    EXPECT_NE(f.rule.substr(0, 8), "hotpath-") << f.format();
  }
}

TEST(AnalyzeHotpath, ByValueContainerParamFiresUnlessItIsAMoveSink) {
  const Report copied = analyze(hotpath_input(
      "src/hot/api.hpp",
      "#pragma once\n"
      "inline long weigh(std::vector<long> batch) {\n"
      "  long total = 0;\n"
      "  for (long v : batch) total += v;\n"
      "  return total;\n"
      "}\n"));
  EXPECT_TRUE(has_rule(copied.findings, "hotpath-by-value-param"))
      << copied.render_text();

  // The sink idiom -- by-value then moved into place -- is the ONE sanctioned
  // by-value container signature.
  const Report sink = analyze(hotpath_input(
      "src/hot/api.hpp",
      "#pragma once\n"
      "struct Holder {\n"
      "  std::vector<long> owned;\n"
      "  void adopt(std::vector<long> batch) { owned = std::move(batch); }\n"
      "};\n"));
  EXPECT_FALSE(has_rule(sink.findings, "hotpath-by-value-param"))
      << sink.render_text();
}

TEST(AnalyzeHotpath, DirectiveMustNameADeclaredModule) {
  Input input;
  input.layers_path = "docs/ARCHITECTURE.layers";
  input.layers_text = "layer util\nhotpath ghost\n";
  input.files.push_back({"src/util/a.hpp", "#pragma once\nnamespace upn {}\n"});
  input.jobs = 1;
  const Report report = analyze(input);
  EXPECT_TRUE(has_rule(report.findings, "layering-undeclared-module"))
      << report.render_text();
}

TEST(AnalyzeHotpath, DirectiveParsingRejectsMalformedAndDuplicateLines) {
  const LayerSpec ok = parse_layers("L", "layer util\nhotpath util\n");
  EXPECT_TRUE(ok.errors.empty());
  EXPECT_EQ(ok.hotpaths.count("util"), 1u);

  EXPECT_TRUE(has_rule(parse_layers("L", "hotpath \n").errors, "layers-malformed"));
  EXPECT_TRUE(
      has_rule(parse_layers("L", "hotpath one two\n").errors, "layers-malformed"));
  EXPECT_TRUE(has_rule(parse_layers("L", "layer util\nhotpath util\nhotpath util\n").errors,
                       "layers-malformed"));
}

// ---- fixture trees --------------------------------------------------------

TEST(AnalyzeFixtures, CleanTreeIsClean) {
  const Report report = analyze_tree(UPN_ANALYZE_CLEAN_DIR, kTreePaths);
  EXPECT_TRUE(report.findings.empty()) << report.render_text();
  EXPECT_GE(report.files, 3u);
}

// A src function that only a unit under tests/ mentions is dead; the same
// function and test with a call from main are clean.
TEST(AnalyzeFixtures, TestMentionsDoNotKeepAFunctionAlive) {
  const auto dead_at = [](const Report& report, const std::string& file) {
    return std::any_of(report.findings.begin(), report.findings.end(), [&](const Finding& f) {
      return f.rule == "dead-function" && f.file == file;
    });
  };
  const std::string seam = "src/core/scaling.cpp";
  EXPECT_FALSE(dead_at(analyze_tree(UPN_ANALYZE_CLEAN_DIR, kTreePaths), seam));
  const Report bad = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths);
  EXPECT_TRUE(dead_at(bad, seam)) << bad.render_text();
}

// Member functions are candidates too: a method no non-test code names fires
// (under its qualified name); one named only as `&Class::m` for bind_front,
// or called only from a bench root, is alive; constructors, destructors and
// operators, which run without their name being written, stay quiet.
TEST(AnalyzeDeadFunction, MemberFunctionsOnlyTestsCallAreDead) {
  Input input;
  input.jobs = 1;
  input.files.push_back({"src/core/ledger.hpp",
                         "#pragma once\n"
                         "namespace demo {\n"
                         "class Ledger {\n"
                         " public:\n"
                         "  explicit Ledger(int start) : total_(start) {}\n"
                         "  ~Ledger() {}\n"
                         "  bool operator==(const Ledger& o) const { return total_ == o.total_; }\n"
                         "  int operator()(int add) const { return total_ + add; }\n"
                         "  explicit operator bool() const { return total_ != 0; }\n"
                         "  int unused_total() const { return total_; }\n"
                         "  int bound_total(int add) const { return total_ + add; }\n"
                         "  int bench_total() const { return total_; }\n"
                         "\n"
                         " private:\n"
                         "  int total_ = 0;\n"
                         "};\n"
                         "}  // namespace demo\n"});
  input.files.push_back({"bench/ledger_bench.cpp",
                         "#include \"src/core/ledger.hpp\"\n"
                         "int main() { return demo::Ledger{1}.bench_total(); }\n"});
  input.files.push_back({"examples/ledger_bind.cpp",
                         "#include <functional>\n"
                         "#include \"src/core/ledger.hpp\"\n"
                         "int main() {\n"
                         "  const demo::Ledger ledger{2};\n"
                         "  return std::bind_front(&demo::Ledger::bound_total, ledger)(3);\n"
                         "}\n"});
  input.files.push_back({"tests/ledger_test.cpp",
                         "#include \"src/core/ledger.hpp\"\n"
                         "int probe() { return demo::Ledger{4}.unused_total(); }\n"});
  const Report report = analyze(input);
  std::vector<Finding> dead;
  for (const Finding& f : report.findings) {
    if (f.rule == "dead-function") dead.push_back(f);
  }
  ASSERT_EQ(dead.size(), 1u) << report.render_text();
  EXPECT_EQ(dead[0].file, "src/core/ledger.hpp");
  EXPECT_EQ(dead[0].line, 10u);
  EXPECT_NE(dead[0].message.find("function 'Ledger::unused_total'"), std::string::npos)
      << dead[0].message;
}

TEST(AnalyzeFixtures, BadTreeFiresEveryCatalogRule) {
  const Report report = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths);
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_TRUE(has_rule(report.findings, rule.id)) << rule.id;
  }
}

// The bad tree's whole report, byte for byte, as `upn_analyze --root
// tests/fixtures-bad/analyze src` prints it; the WILL_FAIL ctest over the same
// tree checks only the exit code.
TEST(AnalyzeFixtures, BadTreeReportMatchesGolden) {
  std::ifstream in{std::string{UPN_ANALYZE_GOLDEN_DIR} + "/bad_report.txt", std::ios::binary};
  ASSERT_TRUE(in);
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(analyze_tree(UPN_ANALYZE_BAD_DIR, {"src"}).render_text(), golden.str());
}

TEST(AnalyzeFixtures, DefaultExcludesSkipDirectoriesNotFileNames) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "upn_analyze_excludes_test";
  std::filesystem::remove_all(root);
  for (const char* rel : {"src/topology/builders.cpp", "build/x.cpp", "build-asan/x.cpp",
                          "tests/fixtures-bad/x.cpp"}) {
    const std::filesystem::path path = root / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream{path} << "int x = 0;\n";
  }
  TreeOptions options;
  options.root = root.string();
  options.paths = {"."};
  Input input;
  std::string error;
  ASSERT_TRUE(collect_tree(options, input, error)) << error;
  ASSERT_EQ(input.files.size(), 1u);
  EXPECT_EQ(input.files[0].path, "src/topology/builders.cpp");

  // PATHs that select no file are an error that names them, not an empty run.
  options.paths = {"build", "tests"};
  Input empty;
  EXPECT_FALSE(collect_tree(options, empty, error));
  EXPECT_NE(error.find("build tests"), std::string::npos) << error;
  std::filesystem::remove_all(root);
}

// ---- determinism across thread counts -------------------------------------

TEST(AnalyzeDeterminism, ReportsAreByteIdenticalAtJobs127) {
  const Report one = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths, 1);
  const Report two = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths, 2);
  const Report seven = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths, 7);
  EXPECT_EQ(one.render_text(), two.render_text());
  EXPECT_EQ(one.render_text(), seven.render_text());
}

// ---- catalog --------------------------------------------------------------

TEST(AnalyzeCatalog, SortedUniqueAndCoversEmittedRules) {
  const std::vector<RuleInfo>& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string{catalog[i - 1].id}, std::string{catalog[i].id});
  }
  const Report report = analyze_tree(UPN_ANALYZE_BAD_DIR, kTreePaths);
  for (const Finding& f : report.findings) {
    const bool known = std::any_of(catalog.begin(), catalog.end(),
                                   [&](const RuleInfo& r) { return f.rule == r.id; });
    EXPECT_TRUE(known) << f.rule;
  }
}

}  // namespace
}  // namespace upn::analyze
