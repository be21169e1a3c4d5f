// Experiment ANALYZE -- the static-analysis engine as its own workload.
//
// upn_analyze runs on every PR, so its wall time is part of the edit loop.
// The bench collects the real repo tree once (the path list of ctest
// upn_analyze_repo_clean; IO measured separately from analysis) and then
// times the full pass stack -- IR construction, layering,
// concurrency, determinism taint, hot-path, include hygiene, and the
// whole-program call graph with its interprocedural passes -- at
// --jobs {1, 2, 7}, the same thread counts the determinism tests pin.
// Scaling flattening out here means a pass serialized.
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/util/par.hpp"
#include "tools/analyze/callgraph.hpp"
#include "tools/analyze/engine.hpp"
#include "tools/analyze/ir.hpp"
#include "tools/analyze/passes.hpp"

namespace {

upn::analyze::Input collect_repo(std::size_t& files) {
  upn::analyze::TreeOptions options;
  options.root = UPN_REPO_ROOT;
  options.paths = {"src", "tools", "bench", "tests", "examples", "upnbench"};
  upn::analyze::Input input;
  std::string error;
  if (!upn::analyze::collect_tree(options, input, error)) {
    std::cerr << "bench_analyze: collect_tree failed: " << error << "\n";
    std::exit(1);
  }
  files = input.files.size();
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  upn::bench::Harness harness{"analyze", argc, argv};

  std::size_t files = 0;
  upn::analyze::Input input = collect_repo(files);

  harness.once("repo_summary", [&] {
    const upn::analyze::Report report = upn::analyze::analyze(input);
    std::cout << "=== ANALYZE: " << report.files << " files, "
              << report.findings.size() << " findings (full pass stack) ===\n\n";
  });

  harness.measure("collect_tree", [&] {
    std::size_t n = 0;
    const upn::analyze::Input fresh = collect_repo(n);
    upn::bench::keep(fresh.files.size());
  });

  for (const unsigned jobs : {1u, 2u, 7u}) {
    input.jobs = jobs;
    harness.measure("analyze/jobs=" + std::to_string(jobs), [&] {
      const upn::analyze::Report report = upn::analyze::analyze(input);
      upn::bench::keep(report.findings.size());
    });
  }

  // ---- call graph + interprocedural stack, isolated from the other passes.
  std::vector<upn::analyze::Unit> units;
  for (const auto& file : input.files) {
    units.push_back(upn::analyze::build_unit(file.path, file.content));
  }

  for (const unsigned jobs : {1u, 7u}) {
    upn::ThreadPool pool{jobs};
    harness.measure("callgraph/jobs=" + std::to_string(jobs), [&] {
      const upn::analyze::CallGraph graph = upn::analyze::build_callgraph(units, pool);
      upn::bench::keep(graph.nodes.size() + graph.edges.size() + graph.opens.size());
    });
  }

  {
    upn::ThreadPool pool{7};
    const upn::analyze::CallGraph graph = upn::analyze::build_callgraph(units, pool);
    harness.measure("interproc_passes", [&] {
      std::size_t findings = 0;
      findings += upn::analyze::run_lock_order_pass(graph, units).size();
      findings += upn::analyze::run_dead_function_pass(graph, units).size();
      upn::bench::keep(findings);
    });
  }

  return harness.finish();
}
