// Regenerates the upn_analyze fixture trees under
// tests/fixtures-clean/analyze/ and tests/fixtures-bad/analyze/.  One table
// below is the single source of truth for both trees, pairing each clean
// construct with its deliberate violation, so a rerun after a rule change
// yields reviewable diffs.
//
// Usage: make_fixtures <clean-dir> <bad-dir>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace fs = std::filesystem;

namespace {

/// One analyze fixture: a repo-relative path plus its content in each tree.
/// A null side means the file exists only in the other tree.  Content is
/// assembled from single-line string fragments so this generator itself
/// stays clean under the engine (string literals are blanked per line).
struct AnalyzeFixture {
  const char* rel;
  const char* clean;
  const char* bad;
};

const AnalyzeFixture kAnalyzeFixtures[] = {
    // Declared module DAG.  The bad variant declares a cycle (alpha <-> beta),
    // carries a stale waiver for an edge that never occurs, and points a
    // hotpath directive at a module that was never declared.
    {"docs/ARCHITECTURE.layers",
     "# fixture DAG: two modules, one declared edge, one hot-path module\n"
     "layer util\n"
     "layer core: util\n"
     "layer hot: util\n"
     "hotpath hot\n",
     "# fixture DAG: declared cycle + stale waiver + dangling hotpath\n"
     "layer util\n"
     "layer core: util\n"
     "layer hot: util\n"
     "layer alpha: beta\n"
     "layer beta: alpha\n"
     "waive core -> alpha: legacy shim, removed long ago\n"
     "hotpath hot\n"
     "hotpath ghost\n"
     "depend core on util\n"},

    // Contracted leaf header (util).
    {"src/util/checked_math.hpp",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int checked_halve(int value) {\n"
     "  UPN_REQUIRE(value >= 0);\n"
     "  return value / 2;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // Declared core -> util edge, contract syntax exercised.
    {"src/core/pipeline_demo.hpp",
     "#pragma once\n"
     "\n"
     "#include \"src/util/checked_math.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int half_of(int value) {\n"
     "  UPN_REQUIRE(value >= 0);\n"
     "  return demo::checked_halve(value);\n"
     "}\n"
     "\n"
     "inline int identity(int value) {\n"
     "  int result = value;\n"
     "  return result;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // In-line suppression syntax exercised in the clean tree.
    {"src/core/seeded.cpp",
     "#include \"src/core/pipeline_demo.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "int reseed() {\n"
     "  return half_of(4) + rand();  "
     "// upn-analyze-waive(no-std-rand: fixture exercises the waiver marker)\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     nullptr},

    // Undeclared util -> core edge (bad only).
    {"src/util/uses_core.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_a.hpp\"\n"},

    // A src/ module the layers file never declares (bad only).
    {"src/stray/loose.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "struct Loose {};\n"
     "\n"
     "}  // namespace demo\n"},

    // File-level include cycle (bad only).
    {"src/core/loop_a.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_b.hpp\"\n"},
    {"src/core/loop_b.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "#include \"src/core/loop_a.hpp\"\n"},

    // Flow rules, one violation per construct (bad only).
    {"src/core/flow.cpp", nullptr,
     "#include <thread>\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "void run_flow(upn::Rng rng, long big) {\n"
     "  auto tiny = static_cast<std::uint16_t>(big);\n"
     "  std::thread worker{[tiny] { (void)tiny; }};\n"
     "  worker.detach();\n"
     "  (void)rng;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Banned patterns, one per line (bad only).
    {"src/core/banned.cpp", nullptr,
     "namespace demo {\n"
     "\n"
     "int roll_dice(double weight) {\n"
     "  std::mt19937 gen;\n"
     "  int r = rand();\n"
     "  std::cout << r << std::endl;\n"
     "  return r;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Header with declarations nobody uses -> unused-include (bad only).
    {"src/core/quiet.hpp", nullptr,
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "inline int quiet_level() { return 3; }\n"
     "\n"
     "}  // namespace demo\n"},
    {"src/core/unused_inc.cpp", nullptr,
     "#include \"src/core/quiet.hpp\"\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "int forty_two() { return 42; }\n"
     "\n"
     "}  // namespace demo\n"},

    // Missing include guard (bad only).
    {"src/core/missing_pragma.hpp", nullptr,
     "namespace demo {\n"
     "\n"
     "struct Empty {};\n"
     "\n"
     "}  // namespace demo\n"},

    // Concurrency-safety pass.  Clean: index-disjoint writes and a per-task
    // Rng sub-stream.  Bad: a by-reference accumulation race plus one Rng
    // advanced from every task.
    {"src/core/par_tasks.cpp",
     "namespace demo {\n"
     "\n"
     "void fill_counts(Pool& pool, std::vector<int>& out, std::uint64_t seed) {\n"
     "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
     "    Rng rng = Rng::stream(seed, i);\n"
     "    out[i] = static_cast<int>(rng.next_u64());\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "void sum_counts(Pool& pool, const std::vector<int>& in, long& total, Rng& rng) {\n"
     "  pool.parallel_for(in.size(), [&](std::size_t i) {\n"
     "    total += in[i] + static_cast<long>(rng.next_u64());\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Determinism-taint pass.  Clean: unordered iteration is collected and
    // std::sort'ed before reaching the obs counter (sanitized).  Bad: four
    // nondeterminism sources each flow into a deterministic sink.
    {"src/core/metric_export.cpp",
     "namespace demo {\n"
     "\n"
     "void export_totals(const std::unordered_map<int, long>& table) {\n"
     "  std::vector<long> values;\n"
     "  for (const auto& [key, value] : table) {\n"
     "    values.push_back(value);\n"
     "  }\n"
     "  std::sort(values.begin(), values.end());\n"
     "  UPN_OBS_COUNT(\"demo.values\", values.size());\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "void export_totals(const std::unordered_map<int, long>& table,\n"
     "                   std::thread::id worker) {\n"
     "  long total = 0;\n"
     "  for (const auto& [key, value] : table) {\n"
     "    total += value;\n"
     "  }\n"
     "  UPN_OBS_COUNT(\"demo.total\", total);\n"
     "  const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "  UPN_OBS_GAUGE_MAX(\"demo.stamp\", stamp);\n"
     "  const auto where = reinterpret_cast<std::uintptr_t>(&table);\n"
     "  UPN_OBS_COUNT(\"demo.where\", where);\n"
     "  UPN_OBS_COUNT(\"demo.worker\", std::hash<std::thread::id>{}(worker));\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Hot-path performance pass over the `hot` module.  Clean: a flat vector,
    // and the by-value parameter is the sanctioned sink idiom (moved in the
    // same unit).  Bad: a banned container, virtual dispatch, allocation in a
    // loop, and a genuine by-value container parameter.
    {"src/hot/engine_demo.hpp",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "struct Queue {\n"
     "  std::vector<int> pending;\n"
     "};\n"
     "\n"
     "inline void consume(std::vector<int> batch) {\n"
     "  std::vector<int> sink = std::move(batch);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "#pragma once\n"
     "\n"
     "namespace demo {\n"
     "\n"
     "struct Queue {\n"
     "  std::list<int> pending;\n"
     "};\n"
     "\n"
     "struct Policy {\n"
     "  virtual int next_hop(int at) = 0;\n"
     "};\n"
     "\n"
     "inline long drain(std::vector<long> batch) {\n"
     "  long total = 0;\n"
     "  for (std::size_t i = 0; i < batch.size(); ++i) {\n"
     "    auto* cell = new long(batch[i]);\n"
     "    total += *cell;\n"
     "    delete cell;\n"
     "  }\n"
     "  return total;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Interprocedural lock-order pass.  Clean: both functions take mu_a then
    // mu_b, and the parallel task touches only its own slot.  Bad: reversed
    // acquisition order across two functions (lock-order-cycle) plus a task
    // body that locks through a callee and opens a file (task-blocking-call,
    // task-blocking-io).
    {"src/core/lock_discipline.cpp",
     "namespace demo {\n"
     "\n"
     "std::mutex mu_a;\n"
     "std::mutex mu_b;\n"
     "int shared_a = 0;\n"
     "int shared_b = 0;\n"
     "\n"
     "void first_then_second() {\n"
     "  std::lock_guard<std::mutex> ga(mu_a);\n"
     "  std::lock_guard<std::mutex> gb(mu_b);\n"
     "  shared_a += 1;\n"
     "  shared_b += 1;\n"
     "}\n"
     "\n"
     "void also_first_then_second() {\n"
     "  std::lock_guard<std::mutex> ga(mu_a);\n"
     "  std::lock_guard<std::mutex> gb(mu_b);\n"
     "  shared_b += shared_a;\n"
     "}\n"
     "\n"
     "void update_both(Pool& pool, std::vector<int>& out) {\n"
     "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
     "    out[i] += 1;\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "std::mutex mu_a;\n"
     "std::mutex mu_b;\n"
     "int shared_a = 0;\n"
     "\n"
     "int locked_read() {\n"
     "  std::lock_guard<std::mutex> ga(mu_a);\n"
     "  return shared_a;\n"
     "}\n"
     "\n"
     "void lock_ab() {\n"
     "  std::lock_guard<std::mutex> ga(mu_a);\n"
     "  std::lock_guard<std::mutex> gb(mu_b);\n"
     "  shared_a += 1;\n"
     "}\n"
     "\n"
     "void lock_ba() {\n"
     "  std::lock_guard<std::mutex> gb(mu_b);\n"
     "  std::lock_guard<std::mutex> ga(mu_a);\n"
     "  shared_a += 2;\n"
     "}\n"
     "\n"
     "void report_progress(Pool& pool, std::vector<int>& out) {\n"
     "  pool.parallel_for(out.size(), [&](std::size_t i) {\n"
     "    out[i] = locked_read();\n"
     "    std::ofstream log{\"progress.txt\"};\n"
     "    log << out[i];\n"
     "  });\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Dead-function pass (bad only): defined, never mentioned anywhere else.
    {"src/core/orphan.cpp", nullptr,
     "namespace demo {\n"
     "\n"
     "int orphaned_scale(int value) {\n"
     "  return value * 3;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Dead-function pass, test-only callers: both trees define the same
    // function and carry the same test that mentions it.  The clean main
    // also calls it; in the bad tree only the test does, and a unit under
    // tests/ is not a caller.
    {"src/core/scaling.cpp",
     "namespace demo {\n"
     "\n"
     "int scaled_twice(int value) {\n"
     "  return value * 2;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "int scaled_twice(int value) {\n"
     "  return value * 2;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},
    {"tests/scaling_test.cpp",
     "namespace demo {\n"
     "\n"
     "int check_scaled_twice() {\n"
     "  return scaled_twice(4) == 8 ? 0 : 1;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n",
     "namespace demo {\n"
     "\n"
     "int check_scaled_twice() {\n"
     "  return scaled_twice(4) == 8 ? 0 : 1;\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"},

    // Liveness anchor: a main() that references every function the trees
    // define on purpose, so dead-function fires only on the orphan and the
    // test-only function above.  The bad variant deliberately omits
    // orphaned_scale and scaled_twice.
    {"src/core/fixture_main.cpp",
     "namespace demo {\n"
     "\n"
     "int run_all(Pool& pool) {\n"
     "  std::vector<int> data(4, 0);\n"
     "  fill_counts(pool, data, 7);\n"
     "  update_both(pool, data);\n"
     "  consume(data);\n"
     "  std::unordered_map<int, long> table;\n"
     "  export_totals(table);\n"
     "  first_then_second();\n"
     "  also_first_then_second();\n"
     "  return reseed() + identity(9) + scaled_twice(1);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"
     "\n"
     "int main() {\n"
     "  demo::Pool pool;\n"
     "  return demo::run_all(pool);\n"
     "}\n",
     "namespace demo {\n"
     "\n"
     "int poke_everything() {\n"
     "  (void)sizeof(&sum_counts);\n"
     "  (void)sizeof(&run_flow);\n"
     "  (void)sizeof(&report_progress);\n"
     "  (void)sizeof(&export_totals);\n"
     "  (void)drain(std::vector<long>{});\n"
     "  lock_ab();\n"
     "  lock_ba();\n"
     "  return forty_two() + quiet_level() + roll_dice(0.5);\n"
     "}\n"
     "\n"
     "}  // namespace demo\n"
     "\n"
     "int main() { return demo::poke_everything(); }\n"},
};

void write_tree(const fs::path& root, bool bad) {
  for (const AnalyzeFixture& fixture : kAnalyzeFixtures) {
    const char* content = bad ? fixture.bad : fixture.clean;
    if (content == nullptr) continue;
    const fs::path path = root / fixture.rel;
    fs::create_directories(path.parent_path());
    std::ofstream os{path, std::ios::binary};
    os << content;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: make_fixtures <clean-dir> <bad-dir>\n";
    return 2;
  }
  write_tree(fs::path{argv[1]}, /*bad=*/false);
  write_tree(fs::path{argv[2]}, /*bad=*/true);
  std::cout << "fixtures written to " << argv[1] << " and " << argv[2] << "\n";
  return 0;
}
